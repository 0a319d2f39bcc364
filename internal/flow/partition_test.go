package flow

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// measureStream measures one interval's block stream under defs, always
// draining it so the producing partitioner is never left blocked.
func measureStream(is *IntervalStream, defs []Definition) ([]Result, error) {
	m, firstErr := NewMeasurer(defs, DefaultTimeout)
	for blk := range is.Blocks() {
		if firstErr == nil {
			firstErr = m.AddBlock(blk)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return m.Flush(), nil
}

// partitionMeasure runs recs through a partitioner, measuring each
// interval's stream under def in a goroutine (a stream only closes when the
// next interval opens, so the handoff must not wait on its own interval),
// and harvests the results in handoff order after Close.
func partitionMeasure(t *testing.T, recs []trace.Record, def Definition, intervalSec, duration float64) []IntervalResult {
	t.Helper()
	var pending []chan IntervalResult
	p, err := NewIntervalPartitioner(intervalSec, duration, 16, func(is *IntervalStream) error {
		res := make(chan IntervalResult, 1)
		go func() {
			results, err := measureStream(is, []Definition{def})
			if err != nil {
				t.Error(err)
				results = []Result{{}}
			}
			res <- IntervalResult{Index: is.Index, Start: is.Start, Result: results[0]}
		}()
		pending = append(pending, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := p.add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([]IntervalResult, 0, len(pending))
	for _, res := range pending {
		out = append(out, <-res)
	}
	return out
}

// The partitioner must account intervals exactly like MeasureIntervals: same
// interval count, same flows, same rebased times, for a realistic stream.
func TestIntervalPartitionerMatchesMeasureIntervals(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	for _, def := range []Definition{By5Tuple, ByPrefix24} {
		want, err := MeasureIntervals(recs, def, intervalSec, DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		got := partitionMeasure(t, recs, def, intervalSec, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: %d intervals, want %d", def, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || got[i].Start != want[i].Start {
				t.Fatalf("%s: interval %d header mismatch", def, i)
			}
			if !sameResults(got[i].Result, want[i].Result) {
				t.Fatalf("%s: interval %d flows differ from MeasureIntervals", def, i)
			}
		}
	}
}

// Concurrent consumers (one goroutine per interval, like the suite's
// scheduler) must see exactly the same sub-streams as serial consumption.
func TestIntervalPartitionerConcurrentConsumers(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	const duration = 40.0
	want, err := MeasureIntervals(recs, By5Tuple, intervalSec, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(want))
	var wg sync.WaitGroup
	p, err := NewIntervalPartitioner(intervalSec, duration, 8, func(is *IntervalStream) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := measureStream(is, []Definition{By5Tuple})
			if err != nil {
				t.Error(err)
				return
			}
			results[is.Index] = res[0]
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := p.add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range want {
		if !sameResults(results[i], want[i].Result) {
			t.Fatalf("interval %d differs under concurrent consumption", i)
		}
	}
}

// With a declared duration, a stream that goes quiet early still hands off
// every interval — the trailing ones as immediately-closed empty streams.
func TestIntervalPartitionerTrailingQuietIntervals(t *testing.T) {
	recs := []trace.Record{
		rec(0.5, 1, 1, 1000, 100),
		rec(1.0, 1, 1, 1000, 100),
	}
	var indices []int
	counts := make(chan [2]int, 8) // (index, records drained)
	p, err := NewIntervalPartitioner(10, 50, 4, func(is *IntervalStream) error {
		indices = append(indices, is.Index)
		go func() {
			n := 0
			for blk := range is.Blocks() {
				n += blk.Len()
			}
			counts <- [2]int{is.Index, n}
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := p.add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(indices) != 5 {
		t.Fatalf("handed off %d intervals, want 5 (⌈50/10⌉)", len(indices))
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("interval %d handed off as index %d", i, idx)
		}
	}
	got := map[int]int{}
	for range indices {
		c := <-counts
		got[c[0]] = c[1]
	}
	want := map[int]int{0: 2, 1: 0, 2: 0, 3: 0, 4: 0}
	for idx, n := range want {
		if got[idx] != n {
			t.Fatalf("interval %d drained %d records, want %d", idx, got[idx], n)
		}
	}
}

// Negative timestamps are rejected in partition mode too.
func TestIntervalPartitionerRejectsNegativeTime(t *testing.T) {
	p, err := NewIntervalPartitioner(10, 0, 4, func(is *IntervalStream) error {
		go func() {
			for range is.Blocks() {
			}
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.add(rec(-1, 1, 1, 1000, 100)); err == nil {
		t.Fatal("negative-time packet should be rejected")
	}
	p.Abort()
}

// Abort must close the in-flight stream so a blocked consumer terminates,
// and further Close calls must be no-ops.
func TestIntervalPartitionerAbort(t *testing.T) {
	drained := make(chan int, 1)
	p, err := NewIntervalPartitioner(10, 0, 4, func(is *IntervalStream) error {
		go func() {
			n := 0
			for blk := range is.Blocks() {
				n += blk.Len()
			}
			drained <- n
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.add(rec(1, 1, 1, 1000, 100)); err != nil {
		t.Fatal(err)
	}
	p.Abort()
	if n := <-drained; n != 1 {
		t.Fatalf("consumer drained %d records, want 1", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal("Close after Abort should be a no-op, got", err)
	}
}

func TestIntervalPartitionerValidation(t *testing.T) {
	handoff := func(*IntervalStream) error { return nil }
	if _, err := NewIntervalPartitioner(0, 0, 4, handoff); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := NewIntervalPartitioner(10, -1, 4, handoff); err == nil {
		t.Fatal("negative duration should be rejected")
	}
	if _, err := NewIntervalPartitioner(10, 0, 0, handoff); err == nil {
		t.Fatal("zero buffer should be rejected")
	}
	if _, err := NewIntervalPartitioner(10, 0, 4, nil); err == nil {
		t.Fatal("nil handoff should be rejected")
	}
}
