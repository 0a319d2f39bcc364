package flow

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// IntervalClock is the one interval engine of the measurement spine: it
// maps packet times to analysis intervals, validates the stream on the way
// (non-negative, non-decreasing times within any declared trace duration),
// and tracks which interval its consumer is currently feeding. The suite's
// IntervalPartitioner, MeasureIntervals and the daemon's service.Pipeline
// all cut their streams with it, so they account intervals identically:
// flows "that belong to 30 minutes intervals are split over the intervals
// they overlap" (§III), and empty intervals between packets are data, not
// gaps.
//
// The consumer drives it block by block: Cut (or Run, which also rebases)
// returns the next same-interval run and its interval index; the consumer
// closes its current interval and calls Advance until Interval reaches that
// index, then feeds the run. The interval with index i starts at
// i·intervalSec.
type IntervalClock struct {
	intervalSec float64
	duration    float64 // declared trace duration; 0 = unbounded
	// limit rejects times at or beyond the declared duration (keeping a
	// rounding sliver past it, see NewIntervalClock); +Inf when unbounded.
	limit float64
	// intervals is the interval count implied by the declared duration
	// (0 = unbounded); maxIdx = intervals−1 clamps the boundary sliver.
	intervals int
	maxIdx    int
	cur       int // index of the interval currently being fed
	started   bool
	lastTime  float64
	// rebased is Run's scratch for interval-local times, so the caller's
	// block is never mutated.
	rebased []float64
}

// ClockState is the resumable part of an IntervalClock: the interval being
// fed and the last accepted packet time (a checkpoint stores it).
type ClockState struct {
	Cur      int
	Started  bool
	LastTime float64
}

// NewIntervalClock builds a clock over intervals of intervalSec. duration,
// when positive, declares the trace length: the stream then has exactly
// ⌈duration/intervalSec⌉ intervals (Total counts trailing intervals with no
// packets — a link that goes quiet is data, not a shorter trace) and
// packets beyond the duration are rejected. 0 leaves the stream unbounded,
// its end derived from the last packet.
func NewIntervalClock(intervalSec, duration float64) (*IntervalClock, error) {
	if !(intervalSec > 0) {
		return nil, fmt.Errorf("flow: interval must be > 0, got %g", intervalSec)
	}
	c := &IntervalClock{intervalSec: intervalSec, limit: math.Inf(1), maxIdx: math.MaxInt}
	if duration == 0 {
		return c, nil
	}
	if !(duration > 0) {
		return nil, fmt.Errorf("flow: trace duration must be > 0, got %g", duration)
	}
	c.duration = duration
	// ⌈duration/intervalSec⌉, robust to float rounding: an exactly-divisible
	// duration often divides to n ± a few ulp, and a bare Ceil of n+ulp
	// would invent a phantom (n+1)-th interval. The relative shrink is far
	// above one ulp and far below any real fractional interval, so only
	// rounding artefacts are absorbed.
	c.intervals = max(int(math.Ceil(duration/intervalSec*(1-1e-9))), 1)
	c.maxIdx = c.intervals - 1
	// A generator computing times as (absolute − warmup) can round a
	// legitimate final packet up to exactly the duration (or an ulp past
	// it); aborting the whole stream over that float artefact would be
	// wrong, so the sliver is accepted and folds into the final interval.
	c.limit = duration * (1 + 1e-9)
	return c, nil
}

// Interval returns the index of the interval currently being fed.
func (c *IntervalClock) Interval() int { return c.cur }

// Origin returns the start time of the interval currently being fed.
func (c *IntervalClock) Origin() float64 { return c.start(c.cur) }

// start returns the start time of interval i.
func (c *IntervalClock) start(i int) float64 { return float64(i) * c.intervalSec }

// index maps an accepted packet time to its interval: the interval
// containing it, or — for the boundary sliver past a declared duration —
// the last one.
func (c *IntervalClock) index(t float64) int { return min(int(t/c.intervalSec), c.maxIdx) }

// Advance moves the clock to the next interval, once the consumer has
// closed the current one.
func (c *IntervalClock) Advance() { c.cur++ }

// LastTime returns the last accepted packet time (0 before the first).
func (c *IntervalClock) LastTime() float64 { return c.lastTime }

// Total returns how many intervals the stream has once it is closed: every
// interval within the declared duration, or — unbounded — through the
// interval containing the last packet (none for an empty stream).
func (c *IntervalClock) Total() int {
	if c.intervals > 0 {
		return c.intervals
	}
	if !c.started {
		return 0
	}
	return c.cur + 1
}

// State captures the clock's resumable state.
func (c *IntervalClock) State() ClockState {
	return ClockState{Cur: c.cur, Started: c.started, LastTime: c.lastTime}
}

// RestoreState resumes the clock from a captured state.
func (c *IntervalClock) RestoreState(s ClockState) {
	c.cur, c.started, c.lastTime = s.Cur, s.Started, s.LastTime
}

// Cut validates times[j:] and returns the run that starts at j: its
// interval index idx and end k, so times[j:k] all fall in interval idx
// (j < len(times) is required). A time that divides to an index past a
// declared duration's last interval is the boundary sliver and clamps into
// it. The accepted times advance LastTime; the time that ends the run is
// left for the next Cut. This is the one boundary-splitting loop of the
// measurement spine.
//
//repro:hotpath
func (c *IntervalClock) Cut(times []float64, j int) (idx, k int, err error) {
	last := c.lastTime // 0 before the first packet: rejects negative times too
	for k = j; k < len(times); k++ {
		t := times[k]
		// Written negated so a NaN time is rejected too.
		if !(t >= last && t < c.limit) {
			c.started = c.started || k > j
			c.lastTime = last
			return 0, 0, c.reject(t, last)
		}
		i := c.index(t)
		if k == j {
			idx = i
		} else if i != idx {
			break
		}
		last = t
	}
	c.started = true
	c.lastTime = last
	return idx, k, nil
}

// reject builds the error for a time Cut refused. It lives outside the hot
// loop so the fmt boxing of its arguments stays off that loop's
// escape-analysis budget: the allocation happens only on the (at most once
// per stream) failure path.
func (c *IntervalClock) reject(t, last float64) error {
	switch {
	case t < 0:
		// Times in (-intervalSec, 0) would otherwise truncate into interval
		// 0 with a negative interval-local time, silently biasing its
		// statistics.
		return fmt.Errorf("flow: packet time %g is negative (before the trace origin)", t)
	case t < last:
		return fmt.Errorf("flow: packet out of order: %g after %g", t, last)
	case c.duration > 0 && t >= c.limit:
		return fmt.Errorf("flow: packet time %g beyond the declared trace duration %g", t, c.duration)
	default:
		return fmt.Errorf("flow: packet time %g is not a finite time", t)
	}
}

// Run cuts the run of blk that starts at packet j (see Cut) and returns it
// rebased to its interval's origin, idx·intervalSec. The run's times live
// in the clock's scratch until the next Run; its other columns share blk's
// storage, which is read, never mutated.
func (c *IntervalClock) Run(blk *trace.Block, j int) (run trace.Block, idx, k int, err error) {
	idx, k, err = c.Cut(blk.Times, j)
	if err != nil {
		return trace.Block{}, 0, 0, err
	}
	run = blk.Slice(j, k)
	if origin := c.start(idx); origin != 0 {
		if cap(c.rebased) < k-j {
			c.rebased = make([]float64, k-j)
		}
		c.rebased = c.rebased[:k-j]
		rebase(c.rebased, run.Times, origin)
		run.Times = c.rebased
	}
	return run, idx, k, nil
}

// rebase fills dst with times shifted by -origin.
//
//repro:hotpath
func rebase(dst, times []float64, origin float64) {
	for i, t := range times {
		dst[i] = t - origin
	}
}
