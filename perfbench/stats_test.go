package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same values, clamped cases included.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if got := percentile(xs, 90); !near(got, 90) {
		t.Errorf("p90 of 0..100 = %g, want 90", got)
	}
	if got := percentile([]float64{1, 2}, 50); !near(got, 1.5) {
		t.Errorf("p50 of {1,2} = %g, want 1.5", got)
	}
}

// A tail percentile is reported only when at least ten samples lie
// beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{90, 100, true}, {90, 99, false}, {99, 1000, true}, {99, 999, false}, {50, 20, true}, {50, 19, false},
	}
	for _, c := range cases {
		if got := percentileSupported(c.p, c.n); got != c.want {
			t.Errorf("percentileSupported(%g, %d) = %t, want %t", c.p, c.n, got, c.want)
		}
	}
	for n, want := range map[int]float64{19: 0, 20: 50, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}
