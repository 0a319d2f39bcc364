package flow

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// bruteIntervals is the window-copy reference implementation: copy each
// interval's window, rebase it and measure it record by record with a fresh
// assembler. The one-pass IntervalClock path must reproduce it exactly.
func bruteIntervals(t *testing.T, recs []trace.Record, def Definition, intervalSec, timeout float64) []IntervalResult {
	t.Helper()
	var out []IntervalResult
	i := 0
	for idx := 0; i < len(recs); idx++ {
		lo := float64(idx) * intervalSec
		hi := lo + intervalSec
		j := i
		for j < len(recs) && recs[j].Time < hi {
			j++
		}
		if j == i {
			out = append(out, IntervalResult{Index: idx, Start: lo})
			continue
		}
		window := make([]trace.Record, j-i)
		copy(window, recs[i:j])
		for k := range window {
			window[k].Time -= lo
		}
		a, err := NewAssembler(def, timeout)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range window {
			if err := a.add(r); err != nil {
				t.Fatal(err)
			}
		}
		res := a.Flush()
		out = append(out, IntervalResult{Index: idx, Start: lo, Result: res})
		i = j
	}
	return out
}

// syntheticRecs generates a realistic record stream for interval tests.
func syntheticRecs(t *testing.T) []trace.Record {
	t.Helper()
	size, err := dist.NewBoundedPareto(1.3, 3000, 300000)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := dist.LognormalFromMoments(250e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := trace.GenerateAll(trace.Config{
		Duration:  40,
		Lambda:    30,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Seed:      21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func sameResults(a, b Result) bool {
	if len(a.Flows) != len(b.Flows) || len(a.Discarded) != len(b.Discarded) {
		return false
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			return false
		}
	}
	for i := range a.Discarded {
		if a.Discarded[i] != b.Discarded[i] {
			return false
		}
	}
	return true
}

// The TestIntervalSplitter* tests pin the interval-splitting contract —
// boundary split, empty and trailing intervals, validation — on the
// IntervalClock, through MeasureIntervals or clockMeasure.

// The one-pass IntervalClock path must agree with the window-copy reference
// for every definition, per interval, flow by flow.
func TestIntervalSplitterMatchesBruteForce(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	for _, def := range []Definition{By5Tuple, ByPrefix24, ByPrefix16} {
		want := bruteIntervals(t, recs, def, intervalSec, DefaultTimeout)
		got, err := MeasureIntervals(recs, def, intervalSec, DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d intervals, want %d", def, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || got[i].Start != want[i].Start {
				t.Fatalf("%s: interval %d header mismatch: %+v vs %+v",
					def, i, got[i], want[i])
			}
			if !sameResults(got[i].Result, want[i].Result) {
				t.Fatalf("%s: interval %d flows differ", def, i)
			}
		}
	}
}

// clockMeasure drives an IntervalClock and a multi-definition Measurer over
// recs the way MeasureIntervals does, with an optional declared duration: it
// returns each interval's results, index-aligned with defs.
func clockMeasure(t *testing.T, recs []trace.Record, defs []Definition, intervalSec, duration float64) [][]Result {
	t.Helper()
	clock, err := NewIntervalClock(intervalSec, duration)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeasurer(defs, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]Result
	closeInterval := func() {
		out = append(out, m.Flush())
		m.Reset()
		clock.Advance()
	}
	for blk := range trace.RecordBlocks(slices.Values(recs)) {
		for j := 0; j < blk.Len(); {
			run, idx, k, err := clock.Run(blk, j)
			if err != nil {
				t.Fatal(err)
			}
			for clock.Interval() < idx {
				closeInterval()
			}
			if err := m.AddBlock(&run); err != nil {
				t.Fatal(err)
			}
			j = k
		}
	}
	for total := clock.Total(); clock.Interval() < total; {
		closeInterval()
	}
	return out
}

// One pass over both definitions must equal two independent
// single-definition passes.
func TestIntervalSplitterMultiDefinition(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	defs := []Definition{By5Tuple, ByPrefix24}
	sets := clockMeasure(t, recs, defs, intervalSec, 0)
	for di, def := range defs {
		want, err := MeasureIntervals(recs, def, intervalSec, DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) != len(want) {
			t.Fatalf("%s: %d intervals, want %d", def, len(sets), len(want))
		}
		for i := range want {
			if !sameResults(sets[i][di], want[i].Result) {
				t.Fatalf("%s: interval %d differs between multi- and single-def pass", def, i)
			}
		}
	}
}

func TestIntervalSplitterEmptyIntervals(t *testing.T) {
	// Packets only in intervals 0 and 3: 1 and 2 must still be emitted.
	recs := []trace.Record{
		rec(0.5, 1, 1, 1000, 100),
		rec(1.0, 1, 1, 1000, 100),
		rec(31.0, 2, 2, 2000, 100),
		rec(31.5, 2, 2, 2000, 100),
	}
	out, err := MeasureIntervals(recs, By5Tuple, 10, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d intervals, want 4", len(out))
	}
	for i, iv := range out {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
	}
	if len(out[1].Flows)+len(out[1].Discarded) != 0 || len(out[2].Flows)+len(out[2].Discarded) != 0 {
		t.Fatal("middle intervals should be empty")
	}
	if len(out[0].Flows) != 1 || len(out[3].Flows) != 1 {
		t.Fatalf("edge intervals should each hold one flow: %d, %d",
			len(out[0].Flows), len(out[3].Flows))
	}
	// Flow times are relative to their interval.
	if f := out[3].Flows[0]; f.Start != 1.0 || f.End != 1.5 {
		t.Fatalf("interval 3 flow not rebased: %+v", f)
	}
}

// A trace that goes quiet early must still emit its trailing zero-rate
// intervals: they are measurements (a dead link), not gaps, and dropping
// them biases the interval accounting eq. (7) is fitted against.
func TestIntervalSplitterTrailingQuietIntervals(t *testing.T) {
	// 50 s declared duration, 10 s intervals, last packet at t = 12: without
	// the duration the stream stops after interval 1; with it, intervals
	// 2-4 must be flushed empty.
	recs := []trace.Record{
		rec(0.5, 1, 1, 1000, 100),
		rec(1.0, 1, 1, 1000, 100),
		rec(12.0, 2, 2, 2000, 100),
		rec(12.5, 2, 2, 2000, 100),
	}
	if n := len(clockMeasure(t, recs, []Definition{By5Tuple}, 10, 0)); n != 2 {
		t.Fatalf("unbounded stream has %d intervals, want 2", n)
	}
	sets := clockMeasure(t, recs, []Definition{By5Tuple}, 10, 50)
	if len(sets) != 5 {
		t.Fatalf("got %d intervals, want 5 (⌈50/10⌉)", len(sets))
	}
	for _, i := range []int{2, 3, 4} {
		if n := len(sets[i][0].Flows) + len(sets[i][0].Discarded); n != 0 {
			t.Fatalf("trailing interval %d not empty: %d flows+discards", i, n)
		}
	}
	if len(sets[0][0].Flows) != 1 || len(sets[1][0].Flows) != 1 {
		t.Fatal("leading intervals lost their flows")
	}
	// The second flow was rebased into interval 1's frame.
	if f := sets[1][0].Flows[0]; f.Start != 2.0 || f.End != 2.5 {
		t.Fatalf("interval 1 flow not rebased: %+v", f)
	}
}

// A declared duration with no packets still has every interval (all empty)
// — the whole trace was quiet, not absent; without one there are none.
func TestIntervalSplitterDurationNoPackets(t *testing.T) {
	if n := len(clockMeasure(t, nil, []Definition{By5Tuple}, 10, 25)); n != 3 {
		t.Fatalf("got %d intervals, want 3 (⌈25/10⌉)", n)
	}
	if n := len(clockMeasure(t, nil, []Definition{By5Tuple}, 10, 0)); n != 0 {
		t.Fatalf("unbounded empty stream has %d intervals, want 0", n)
	}
}

// Negative timestamps must be rejected: int(t/interval) truncates times in
// (-interval, 0) into interval 0 with a negative interval-local time,
// silently corrupting its rate series and flow statistics.
func TestIntervalSplitterRejectsNegativeTime(t *testing.T) {
	if _, err := MeasureIntervals([]trace.Record{rec(-0.5, 1, 1, 1000, 100)}, By5Tuple, 10, DefaultTimeout); err == nil {
		t.Fatal("negative-time packet should be rejected")
	}
	clock, err := NewIntervalClock(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if _, _, err := clock.Cut([]float64{bad}, 0); err == nil {
			t.Fatalf("packet time %g should be rejected", bad)
		}
	}
	if clock.Total() != 0 || clock.LastTime() != 0 {
		t.Fatal("rejected times must not start the stream")
	}
}

func TestIntervalSplitterDurationValidation(t *testing.T) {
	for _, d := range []float64{-1, math.NaN(), math.Inf(-1)} {
		if _, err := NewIntervalClock(10, d); err == nil {
			t.Fatalf("duration %g should be rejected", d)
		}
	}
	clock, err := NewIntervalClock(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Packets genuinely beyond the declared duration break the interval
	// count invariant and must be rejected...
	if _, _, err := clock.Cut([]float64{31}, 0); err == nil {
		t.Fatal("packet beyond the duration should be rejected")
	}
	// ...but the rounding sliver at the boundary itself (a generator's
	// absolute−warmup subtraction can round a final packet to exactly the
	// duration) folds into the last interval instead of aborting the trace.
	idx, k, err := clock.Cut([]float64{30}, 0)
	if err != nil {
		t.Fatalf("boundary-sliver packet rejected: %v", err)
	}
	if idx != 2 || k != 1 {
		t.Fatalf("boundary sliver placed in interval %d (run end %d), want 2 (1)", idx, k)
	}
}

func TestIntervalSplitterValidation(t *testing.T) {
	recs := []trace.Record{rec(5, 1, 1, 1000, 100)}
	if _, err := MeasureIntervals(recs, By5Tuple, 0, DefaultTimeout); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := NewIntervalClock(math.NaN(), 0); err == nil {
		t.Fatal("NaN interval should be rejected")
	}
	if _, err := MeasureIntervals(recs, Definition(99), 10, DefaultTimeout); err == nil {
		t.Fatal("unknown definition should be rejected")
	}
	recs = append(recs, rec(4, 1, 1, 1000, 100))
	if _, err := MeasureIntervals(recs, By5Tuple, 10, DefaultTimeout); err == nil {
		t.Fatal("out-of-order packet should be rejected")
	}
}

// Cut returns maximal same-interval runs, packets exactly on a boundary
// opening the next interval, and leaves the run-ending packet for the next
// call: LastTime stays at the run's last packet.
func TestIntervalClockCutsRuns(t *testing.T) {
	clock, err := NewIntervalClock(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 9.5, 10, 10, 19.999, 40, 40.5}
	var runs [][3]int
	for j := 0; j < len(times); {
		idx, k, err := clock.Cut(times, j)
		if err != nil {
			t.Fatal(err)
		}
		if clock.LastTime() != times[k-1] {
			t.Fatalf("LastTime %g after run [%d,%d), want %g", clock.LastTime(), j, k, times[k-1])
		}
		runs = append(runs, [3]int{idx, j, k})
		j = k
	}
	want := [][3]int{{0, 0, 2}, {1, 2, 5}, {4, 5, 7}}
	if !slices.Equal(runs, want) {
		t.Fatalf("runs %v, want %v", runs, want)
	}
	if _, _, err := clock.Cut([]float64{40.25}, 0); err == nil {
		t.Fatal("a time before LastTime should be rejected across calls")
	}
}

// Run rebases each run to its interval's origin in scratch, leaving the
// caller's block untouched.
func TestIntervalClockRunRebases(t *testing.T) {
	clock, err := NewIntervalClock(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var blk trace.Block
	for _, tm := range []float64{1, 2, 25, 27.5} {
		blk.AppendRecord(rec(tm, 1, 1, 1000, 100))
	}
	run, idx, k, err := clock.Run(&blk, 0)
	if err != nil || idx != 0 || k != 2 || !slices.Equal(run.Times, []float64{1, 2}) {
		t.Fatalf("first run: idx %d end %d times %v err %v", idx, k, run.Times, err)
	}
	run, idx, k, err = clock.Run(&blk, 2)
	if err != nil || idx != 2 || k != 4 || !slices.Equal(run.Times, []float64{5, 7.5}) {
		t.Fatalf("second run: idx %d end %d times %v err %v", idx, k, run.Times, err)
	}
	if !slices.Equal(blk.Times, []float64{1, 2, 25, 27.5}) {
		t.Fatalf("caller's block mutated: %v", blk.Times)
	}
}

// An exactly-divisible duration whose float ratio lands a few ulp above the
// integer (e.g. 7×0.3/0.3 = 8 under Ceil) must not invent a phantom
// interval: the count drives scheduler bookkeeping sized to the true total.
func TestIntervalClockFloatRobustTotal(t *testing.T) {
	for _, tc := range []struct {
		n   int
		ivl float64
	}{
		{7, 0.3}, {14, 0.3}, {28, 0.3}, {61, 0.3}, {79, 120}, {3, 0.1},
	} {
		clock, err := NewIntervalClock(tc.ivl, float64(tc.n)*tc.ivl)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := clock.Cut([]float64{tc.ivl / 2}, 0); err != nil {
			t.Fatal(err)
		}
		if got := clock.Total(); got != tc.n {
			t.Fatalf("duration %d×%g has %d intervals, want %d", tc.n, tc.ivl, got, tc.n)
		}
	}
}
