package main

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// tinyStore writes 3000 packets over 12 s with interval 5 left empty, so
// one block closes two intervals.
func tinyStore(t *testing.T) *store.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.fstore")
	w, err := store.Create(path, store.Meta{Seed: 1, Duration: 13}, store.Options{SegmentPackets: 1000})
	if err != nil {
		t.Fatal(err)
	}
	blk := &trace.Block{}
	var sum trace.Summary
	for i := 0; i < 3000; i++ {
		tm := float64(i) * 0.004
		if tm >= 5 && tm < 6 {
			continue
		}
		blk.Append(tm, 1000, uint64(i%7), uint64(100+i%5))
		sum.Packets++
		sum.Bytes += 1000
	}
	if err := w.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(sum); err != nil {
		t.Fatal(err)
	}
	rd, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}

// The block handoffSource names as an interval's closer is the block
// during whose Pipeline.AddBlock the pipeline itself reports the interval.
func TestHandoffMatchesClosingBlock(t *testing.T) {
	rd := tinyStore(t)
	const interval = 1.0
	src := &service.ReplaySource{Reader: rd, Epochs: 2}

	// Oracle: drive the pipeline directly and note which block each
	// report was emitted under.
	want := map[int]int{}
	block := -1
	p, err := service.NewPipeline(service.PipelineConfig{IntervalSec: interval, Delta: 0.1, OnInterval: func(rep service.Report) error {
		want[rep.Index] = block
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = src.Stream(context.Background(), service.Cursor{}, func(_ int64, blk *trace.Block) error {
		block++
		return p.AddBlock(blk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if block < 20 {
		t.Fatalf("only %d blocks; the test needs many blocks per interval boundary", block+1)
	}

	hs := &handoffSource{inner: src, intervalSec: interval}
	got := map[int]handover{}
	var partial int
	link, err := service.NewLink(service.LinkConfig{
		Name:   "tiny",
		Source: hs,
		Pipeline: service.PipelineConfig{IntervalSec: interval, Delta: 0.1, OnInterval: func(rep service.Report) error {
			if rep.Partial {
				partial++
				return nil
			}
			h, ok := hs.closer(rep.Index)
			if !ok {
				t.Errorf("interval %d reported without a closing handover", rep.Index)
			}
			got[rep.Index] = h
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || partial != 1 {
		t.Fatalf("link reported %d closed intervals and %d partial, pipeline %d closed", len(got), partial, len(want))
	}
	for k, b := range want {
		if got[k].block != b {
			t.Errorf("interval %d: handoff names block %d, pipeline closed it in block %d", k, got[k].block, b)
		}
	}
	if got[4].block != got[5].block {
		t.Errorf("intervals 4 and 5 close in blocks %d and %d, want one block (interval 5 is empty)", got[4].block, got[5].block)
	}
}
