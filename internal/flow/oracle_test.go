package flow

import (
	"repro/internal/netpkt"
	"repro/internal/trace"
)

// The record-at-a-time paths below are test oracles: the pipeline itself
// only takes blocks, and these reference faces let tests feed hand-built
// records one at a time and check the block path against them.

// deriveOne computes the (hash, keyA, keyB) triple of one packed packet
// under a definition — the record-at-a-time counterpart of the vector
// derivation in Measurer.derive, kept textually tiny so both agree.
func deriveOne(def Definition, src, dst uint64) (h, ka, kb uint64) {
	if def == By5Tuple {
		ka = src
		kb = dst &^ netpkt.PackedTTLMask
		return hashKey(ka, kb), ka, kb
	}
	drop, _ := prefixDrop(def)
	kb = (dst >> netpkt.PackedAddrShift) &^ drop
	return hashKey(0, kb), 0, kb
}

// add consumes one packet record through deriveOne. Packets must arrive in
// non-decreasing time order.
func (a *Assembler) add(rec trace.Record) error {
	if a.started && rec.Time < a.lastTime {
		return errOutOfOrder(rec.Time, a.lastTime)
	}
	a.started = true
	a.lastTime = rec.Time
	src, dst := rec.Hdr.Packed()
	h, ka, kb := deriveOne(a.def, src, dst)
	a.addPacked(rec.Time, rec.Hdr.TotalLen, h, ka, kb)
	return nil
}

// add consumes one packet record under every definition.
func (m *Measurer) add(rec trace.Record) error {
	for _, a := range m.asm {
		if err := a.add(rec); err != nil {
			return err
		}
	}
	return nil
}

// add routes one packet record through the partitioner as a one-packet
// block.
func (p *IntervalPartitioner) add(rec trace.Record) error {
	var blk trace.Block
	blk.AppendRecord(rec)
	return p.AddBlock(&blk)
}
