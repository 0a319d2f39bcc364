package flow

import (
	"fmt"
	"sort"
)

// This file is the checkpoint/restore extension point of the assembler: a
// long-running service snapshots the in-progress flow table mid-stream
// (between blocks) so a crashed pipeline can resume from durable state
// instead of losing every open flow. The snapshot is a portable value —
// packed keys plus flow quantities — decoupled from the table's physical
// layout: restore re-derives hashes and re-inserts, so the on-disk format
// survives any future table reorganisation.

// FlowEntry is one in-progress flow in a snapshot: its packed two-word key
// (the layout Measurer.derive produces for the assembler's definition) and the
// accumulated flow quantities.
type FlowEntry struct {
	KeyA    uint64
	KeyB    uint64
	Start   float64
	Last    float64
	Bytes   int64
	Packets int64
}

// AssemblerState is the complete resumable state of one assembler:
// in-progress flows plus the flows already finalised (by expiry sweeps)
// since the last Flush. Sweep-cursor internals are deliberately absent —
// expiry timing affects only the memory bound, never results, so a restored
// assembler restarting its sweep rotation is observationally identical.
type AssemblerState struct {
	Started   bool
	LastTime  float64
	Entries   []FlowEntry
	Flows     []Flow
	Discarded []DiscardedPacket
}

// SnapshotState captures the assembler's resumable state. Entries are
// returned sorted by key so the snapshot is identical regardless of the
// table's physical layout (insert order, capacity history); the assembler
// itself is unchanged and keeps consuming packets.
func (a *Assembler) SnapshotState() AssemblerState {
	st := AssemblerState{
		Started:  a.started,
		LastTime: a.lastTime,
	}
	tb := &a.table
	for i := range tb.hash {
		if tb.hash[i] == 0 {
			continue
		}
		fs := &a.states[tb.slot[i]]
		st.Entries = append(st.Entries, FlowEntry{
			KeyA:    tb.keyA[i],
			KeyB:    tb.keyB[i],
			Start:   fs.start,
			Last:    fs.last,
			Bytes:   fs.bytes,
			Packets: int64(fs.packets),
		})
	}
	sort.Slice(st.Entries, func(i, j int) bool {
		ei, ej := st.Entries[i], st.Entries[j]
		if ei.KeyA != ej.KeyA {
			return ei.KeyA < ej.KeyA
		}
		return ei.KeyB < ej.KeyB
	})
	if len(a.res.Flows) > 0 {
		st.Flows = append([]Flow(nil), a.res.Flows...)
	}
	if len(a.res.Discarded) > 0 {
		st.Discarded = append([]DiscardedPacket(nil), a.res.Discarded...)
	}
	return st
}

// RestoreState replaces the assembler's state with a snapshot: the table is
// rebuilt by re-inserting every entry (hashes re-derived from the keys), and
// the unflushed result set is adopted. Invalid snapshots — duplicate keys,
// non-positive packet counts, times ahead of the stream clock — are
// rejected with an error and leave the assembler Reset, never half-restored.
func (a *Assembler) RestoreState(st AssemblerState) error {
	a.Reset()
	fail := func(err error) error {
		a.Reset()
		return err
	}
	for _, e := range st.Entries {
		if e.Packets < 1 {
			return fail(fmt.Errorf("flow: snapshot entry has %d packets", e.Packets))
		}
		if e.Last < e.Start {
			return fail(fmt.Errorf("flow: snapshot entry ends (%g) before it starts (%g)", e.Last, e.Start))
		}
		if !st.Started || e.Last > st.LastTime {
			return fail(fmt.Errorf("flow: snapshot entry last-seen %g is ahead of the stream clock", e.Last))
		}
		h := hashKey(e.KeyA, e.KeyB)
		pos, found := a.table.find(h, e.KeyA, e.KeyB)
		if found {
			return fail(fmt.Errorf("flow: snapshot has duplicate flow key (%#x, %#x)", e.KeyA, e.KeyB))
		}
		slot := a.alloc()
		pos = a.table.insert(pos, h, e.KeyA, e.KeyB, slot)
		a.states[slot] = flowState{
			start:   e.Start,
			last:    e.Last,
			bytes:   e.Bytes,
			packets: int(e.Packets),
			// firstBits only matters while packets == 1, where it is by
			// construction the single packet's size.
			firstBits: float64(e.Bytes) * 8,
		}
		a.table.last[pos] = e.Last
	}
	a.started = st.Started
	a.lastTime = st.LastTime
	a.res = Result{
		Flows:     append([]Flow(nil), st.Flows...),
		Discarded: append([]DiscardedPacket(nil), st.Discarded...),
	}
	return nil
}

// ActiveFlows returns the in-progress flow count of the i-th definition's
// assembler — the occupancy a service's memory bound watches.
func (m *Measurer) ActiveFlows(i int) int { return m.asm[i].ActiveFlows() }

// SnapshotStates captures the resumable state of every assembler, index-
// aligned with the defs the measurer was built with.
func (m *Measurer) SnapshotStates() []AssemblerState {
	out := make([]AssemblerState, len(m.asm))
	for i, a := range m.asm {
		out[i] = a.SnapshotState()
	}
	return out
}

// RestoreStates restores every assembler from a SnapshotStates capture. On
// error the measurer is Reset, never half-restored.
func (m *Measurer) RestoreStates(states []AssemblerState) error {
	if len(states) != len(m.asm) {
		m.Reset()
		return fmt.Errorf("flow: snapshot has %d assembler states, measurer has %d definitions", len(states), len(m.asm))
	}
	for i, a := range m.asm {
		if err := a.RestoreState(states[i]); err != nil {
			m.Reset()
			return err
		}
	}
	return nil
}
