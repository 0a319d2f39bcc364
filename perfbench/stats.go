package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads this program prints match the ones a Python reader
// computes from the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		// j is clamped to [1, n-1] before delta is taken, as CPython does.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise figure the bounds in BENCHMARK.json are set against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentileSupported reports whether n samples leave at least minBeyond
// samples above the p-th percentile, the rule for reporting a tail
// percentile at all.
func percentileSupported(p float64, n int) bool {
	// The tolerance absorbs rounding in 100-p (100-99.9 is not 0.1).
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// highestPercentile returns the highest of the usual tail percentiles that
// n samples support (0 when none does, not even the median).
func highestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if percentileSupported(p, n) {
			return p
		}
	}
	return 0
}
