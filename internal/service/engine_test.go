package service

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/netpkt"
	"repro/internal/trace"
)

// engineStream builds a time-ordered block stream over 10 s intervals that
// exercises every cut the interval engine makes: packets exactly on
// boundaries (10, 20, 70, 80), a single block straddling the four empty
// intervals 3-6, and an odd block size so runs never align with blocks.
func engineStream() []*trace.Block {
	r := rand.New(rand.NewSource(3))
	var times []float64
	for t := 0.0; t < 25; t += r.Float64() * 0.2 {
		times = append(times, t)
	}
	times = append(times, 10, 10, 20, 20) // on-boundary packets
	for t := 70.0; t < 93; t += r.Float64() * 0.3 {
		times = append(times, t)
	}
	times = append(times, 80, 80, 79.9)
	slices.Sort(times)

	var blocks []*trace.Block
	blk := &trace.Block{}
	for _, t := range times {
		h := netpkt.Header{
			SrcIP:    netpkt.IPv4Addr{10, 0, 0, byte(r.Intn(3))},
			DstIP:    netpkt.IPv4Addr{172, 16, byte(r.Intn(2)), byte(r.Intn(2))},
			Protocol: netpkt.ProtoTCP,
			SrcPort:  uint16(1000 + r.Intn(2)),
			DstPort:  80,
			TotalLen: uint16(40 + r.Intn(1460)),
		}
		blk.AppendRecord(trace.Record{Time: t, Hdr: h})
		if blk.Len() == 37 {
			blocks = append(blocks, blk)
			blk = &trace.Block{}
		}
	}
	return append(blocks, blk)
}

// The daemon's Pipeline and the suite's IntervalPartitioner + Measurer cut
// the same stream with the same flow.IntervalClock, so for every interval —
// empty ones and the final drained one included — they must count the same
// flows, discarded single-packet flows and packets under Defs[0].
func TestPipelineAgreesWithPartitioner(t *testing.T) {
	const interval = 10.0
	blocks := engineStream()
	if !slices.ContainsFunc(blocks, func(b *trace.Block) bool { return b.Times[0] < 30 && b.Times[b.Len()-1] >= 70 }) {
		t.Fatal("no block straddles the empty intervals 3-6")
	}

	var reps []Report
	p, err := NewPipeline(PipelineConfig{IntervalSec: interval, Delta: 0.5, OnInterval: func(r Report) error {
		reps = append(reps, r)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := p.AddBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	type counts struct {
		flows, discarded int
		packets          int64
	}
	var (
		mu   sync.Mutex
		got  = map[int]counts{}
		wg   sync.WaitGroup
		defs = []flow.Definition{flow.By5Tuple, flow.ByPrefix24}
	)
	part, err := flow.NewIntervalPartitioner(interval, 0, 64, func(is *flow.IntervalStream) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := flow.NewMeasurer(defs, flow.DefaultTimeout)
			var pkts int64
			for blk := range is.Blocks() {
				pkts += int64(blk.Len())
				if err == nil {
					err = m.AddBlock(blk)
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			res := m.Flush()[0]
			mu.Lock()
			got[is.Index] = counts{len(res.Flows), len(res.Discarded), pkts}
			mu.Unlock()
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := part.AddBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := part.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(reps) != 10 || len(got) != len(reps) {
		t.Fatalf("pipeline reported %d intervals, partitioner %d; want 10 each", len(reps), len(got))
	}
	for i, r := range reps {
		want := got[i]
		if r.Index != i || r.Flows != want.flows || r.Discarded != want.discarded || r.Packets != want.packets {
			t.Fatalf("interval %d: pipeline %d flows/%d discarded/%d packets, partitioner %d/%d/%d",
				i, r.Flows, r.Discarded, r.Packets, want.flows, want.discarded, want.packets)
		}
	}
	for _, i := range []int{3, 4, 5, 6} {
		if reps[i].Packets != 0 {
			t.Fatalf("interval %d should be empty, has %d packets", i, reps[i].Packets)
		}
	}
	for _, i := range []int{0, 1, 2, 7, 8, 9} {
		if reps[i].Packets == 0 || reps[i].Flows == 0 {
			t.Fatalf("interval %d should carry flows: %+v", i, reps[i])
		}
	}
}
