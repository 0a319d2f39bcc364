// Package timeseries turns a packet stream into the measured total-rate
// process of the paper's §V-F: the volume of data crossing the link is
// averaged over consecutive intervals of length Δ (the paper uses 200 ms,
// the average round-trip time), yielding a piecewise-constant rate series
// whose first two moments are compared against the model.
package timeseries

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"repro/internal/flow"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Series is a measured rate process: Rate[k] is the average rate in bit/s
// over [k·Delta, (k+1)·Delta).
type Series struct {
	Delta float64
	Rate  []float64
}

// Binner accumulates packet volumes into rate bins as the packets stream
// by, so the rate series of an interval is built in the same pass that
// measures its flows — no second scan over a materialised record slice.
// One Binner is reused across intervals via Reset.
type Binner struct {
	delta    float64
	duration float64
	bits     []float64
}

// NewBinner prepares the ⌊duration/delta⌋ bins of length delta that fit in
// [0, duration).
func NewBinner(duration, delta float64) (*Binner, error) {
	b := &Binner{}
	if err := b.Reinit(duration, delta); err != nil {
		return nil, err
	}
	return b, nil
}

// Reinit re-targets the binner to a fresh [0, duration) window with bins of
// delta, zeroing the bins and reusing their storage when it is large
// enough — the per-worker scratch path of the measurement scheduler, which
// bins thousands of intervals without reallocating.
func (b *Binner) Reinit(duration, delta float64) error {
	if !(delta > 0) {
		return fmt.Errorf("timeseries: delta must be > 0, got %g", delta)
	}
	if !(duration > 0) {
		return fmt.Errorf("timeseries: duration must be > 0, got %g", duration)
	}
	n := int(duration / delta)
	if n == 0 {
		return fmt.Errorf("timeseries: duration %g shorter than delta %g", duration, delta)
	}
	b.delta, b.duration = delta, duration
	if cap(b.bits) >= n {
		b.bits = b.bits[:n]
		clear(b.bits)
	} else {
		b.bits = make([]float64, n)
	}
	return nil
}

// binIndex is the one rule placing a time t on n bins of width delta, the
// convention t ∈ [kΔ, (k+1)Δ): it returns t's bin, or -1 when t falls in
// none. The bins cover [0, nΔ); a trailing partial bin of a duration that
// is not a multiple of Δ is not a bin. Binner.Add and Series.Subtract both
// use it, so a discarded packet is removed from exactly the bin it was
// added to.
func binIndex(t, delta float64, n int) int {
	if !(t >= 0) {
		return -1
	}
	k := int(t / delta)
	if k >= n {
		// t/delta can round up to n for a t just below nΔ: that float edge
		// stays in the last bin. A t at or past nΔ is in none.
		if t >= float64(n)*delta {
			return -1
		}
		k = n - 1
	}
	return k
}

// Add accounts one packet of the given size at time t (relative to the
// window origin). Packets outside the bins (see binIndex) are ignored.
//
//repro:hotpath
func (b *Binner) Add(t, bits float64) {
	if k := binIndex(t, b.delta, len(b.bits)); k >= 0 {
		b.bits[k] += bits
	}
}

// AddBlock accounts every packet of a SoA block in one pass over its time
// and size columns — the batch face the streaming measurement pipeline
// bins with.
//
//repro:hotpath
func (b *Binner) AddBlock(blk *trace.Block) {
	for j, t := range blk.Times {
		b.Add(t, float64(blk.Sizes[j])*8)
	}
}

// Reset clears the bins for the next window.
func (b *Binner) Reset() {
	clear(b.bits)
}

// Series snapshots the accumulated volumes as a rate series. The returned
// series owns its storage, so the binner can be Reset and reused (and the
// series mutated, e.g. by Subtract) independently.
func (b *Binner) Series() Series {
	rate := make([]float64, len(b.bits))
	for k, v := range b.bits {
		rate[k] = v / b.delta
	}
	return Series{Delta: b.delta, Rate: rate}
}

// Bin averages the packet volumes of recs over bins of length delta across
// [0, duration). Packets outside the window are ignored. It is the
// materialised-slice convenience over Binner.
func Bin(recs []trace.Record, duration, delta float64) (Series, error) {
	return BinStream(slices.Values(recs), duration, delta)
}

// BinStream bins a record iterator (e.g. a replayable trace.Window
// sub-stream) without materialising it: the streaming counterpart of Bin.
func BinStream(recs iter.Seq[trace.Record], duration, delta float64) (Series, error) {
	b, err := NewBinner(duration, delta)
	if err != nil {
		return Series{}, err
	}
	for blk := range trace.RecordBlocks(recs) {
		b.AddBlock(blk)
	}
	return b.Series(), nil
}

// Subtract removes the given discarded packets (single-packet flows, which
// the paper excludes from the measured variance) from the series in place,
// each from the bin Binner.Add put it in (see binIndex).
func (s Series) Subtract(pkts []flow.DiscardedPacket) {
	for _, p := range pkts {
		k := binIndex(p.Time, s.Delta, len(s.Rate))
		if k < 0 {
			continue
		}
		s.Rate[k] -= p.Bits / s.Delta
		if s.Rate[k] < 0 {
			s.Rate[k] = 0
		}
	}
}

// Mean returns the time-average rate in bit/s.
func (s Series) Mean() float64 { return stats.Mean(s.Rate) }

// Variance returns the sample variance of the binned rate, the σ̂_Δ² the
// model's Corollary 2 is validated against.
func (s Series) Variance() float64 { return stats.Variance(s.Rate) }

// CoV returns the coefficient of variation σ̂/μ̂ (the y/x axes of the
// paper's Figures 9, 10, 12, 13 are this quantity in percent).
func (s Series) CoV() float64 { return stats.CoV(s.Rate) }

// AutoCorrelation returns the empirical autocorrelation of the rate at lags
// 0..maxLag bins.
func (s Series) AutoCorrelation(maxLag int) []float64 {
	return stats.AutoCorrelation(s.Rate, maxLag)
}

// Downsample returns a series with bins of k·Delta, averaging groups of k
// consecutive bins (any remainder bins are dropped). The predictor samples
// the rate at multi-second periods this way without re-binning packets.
func (s Series) Downsample(k int) (Series, error) {
	if k <= 0 {
		return Series{}, fmt.Errorf("timeseries: downsample factor must be > 0, got %d", k)
	}
	if k == 1 {
		return Series{Delta: s.Delta, Rate: append([]float64(nil), s.Rate...)}, nil
	}
	n := len(s.Rate) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < k; j++ {
			sum += s.Rate[i*k+j]
		}
		out[i] = sum / float64(k)
	}
	return Series{Delta: s.Delta * float64(k), Rate: out}, nil
}

// ActiveFlowSeries counts, for each bin of length delta over [0, duration),
// the number of flows active at the bin's start (a flow is active at t when
// Start ≤ t < End). This is the N(t) process of the M/G/∞ view (§V-A),
// used by the paper's second family of predictors.
func ActiveFlowSeries(flows []flow.Flow, duration, delta float64) (Series, error) {
	if !(delta > 0) || !(duration > 0) {
		return Series{}, fmt.Errorf("timeseries: need positive delta and duration")
	}
	n := int(duration / delta)
	if n == 0 {
		return Series{}, fmt.Errorf("timeseries: duration %g shorter than delta %g", duration, delta)
	}
	counts := make([]float64, n)
	for _, f := range flows {
		// First bin whose start t = kΔ satisfies t ≥ f.Start.
		lo := int(math.Ceil(f.Start / delta))
		// Last bin whose start is strictly before f.End.
		hi := int(f.End / delta)
		if float64(hi)*delta >= f.End {
			hi--
		}
		if lo < 0 {
			lo = 0
		}
		for k := lo; k <= hi && k < n; k++ {
			counts[k]++
		}
	}
	return Series{Delta: delta, Rate: counts}, nil
}
