package timeseries

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/netpkt"
	"repro/internal/trace"
)

func binRec(t float64, bytes uint16) trace.Record {
	return trace.Record{Time: t, Hdr: netpkt.Header{TotalLen: bytes}}
}

// The streaming binner must agree with the materialised Bin and survive
// Reset between windows.
func TestBinnerMatchesBinAndResets(t *testing.T) {
	if _, err := NewBinner(10, 0); err == nil {
		t.Fatal("zero delta should be rejected")
	}
	if _, err := NewBinner(0, 1); err == nil {
		t.Fatal("zero duration should be rejected")
	}
	if _, err := NewBinner(0.5, 1); err == nil {
		t.Fatal("duration < delta should be rejected")
	}

	recs := []trace.Record{
		binRec(0.05, 100),
		binRec(0.15, 200),
		binRec(0.95, 300),
		binRec(-1, 999), // outside the window, ignored
		binRec(10, 999), // outside the window, ignored
	}
	want, err := Bin(recs, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBinner(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		b.Add(r.Time, r.Bits())
	}
	first := b.Series()
	if len(first.Rate) != len(want.Rate) {
		t.Fatalf("series length %d, want %d", len(first.Rate), len(want.Rate))
	}
	for k := range want.Rate {
		if first.Rate[k] != want.Rate[k] {
			t.Fatalf("bin %d: %g, want %g", k, first.Rate[k], want.Rate[k])
		}
	}

	// The snapshot owns its storage: mutating it must not leak back.
	first.Rate[0] = -1
	if again := b.Series(); again.Rate[0] == -1 {
		t.Fatal("Series must snapshot, not alias, the binner's storage")
	}

	b.Reset()
	empty := b.Series()
	for k, v := range empty.Rate {
		if v != 0 {
			t.Fatalf("bin %d nonzero after Reset: %g", k, v)
		}
	}
	b.Add(0.25, 800) // 800 bits in bin 2 of a 0.1 s grid -> 8000 bit/s
	if got := b.Series().Rate[2]; got != 8000 {
		t.Fatalf("rate after reuse = %g, want 8000", got)
	}
}

// binCase is one time and the bin it must land in (-1 = none).
type binCase struct {
	time float64
	bin  int
}

// checkBinRule adds each case's packet alone to b, checks the bin it lands
// in, then checks Series.Subtract removes it from that same bin.
func checkBinRule(t *testing.T, b *Binner, cases []binCase) {
	t.Helper()
	for _, tc := range cases {
		b.Reset()
		b.Add(tc.time, 300)
		s := b.Series()
		got := -1
		for k, v := range s.Rate {
			if v != 0 {
				got = k
			}
		}
		if got != tc.bin {
			t.Fatalf("t=%v binned in %d, want %d", tc.time, got, tc.bin)
		}
		s.Subtract([]flow.DiscardedPacket{{Time: tc.time, Bits: 300}})
		for k, v := range s.Rate {
			if v != 0 {
				t.Fatalf("t=%v: bin %d keeps %g after subtracting the same packet", tc.time, k, v)
			}
		}
	}
}

// Binner.Add and Series.Subtract place a time by one rule: a duration that
// is not a multiple of Δ has ⌊duration/Δ⌋ bins, and a packet in the
// trailing partial bin [nΔ, duration) is neither binned nor subtracted.
// Only the float edge (t/Δ rounding up to n for a t just below nΔ) folds
// into the last bin, for both.
func TestBinnerAndSubtractShareBinRule(t *testing.T) {
	b, err := NewBinner(10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	n := len(b.Series().Rate)
	if n != 33 {
		t.Fatalf("10 s / 0.3 s binner has %d bins, want 33", n)
	}
	end := float64(n) * 0.3
	// A time just below nΔ whose quotient rounds up to n: the float edge.
	edge := math.Nextafter(end, 0)
	for edge/0.3 < float64(n) {
		edge = math.Nextafter(edge, end)
	}
	if edge >= end {
		t.Fatalf("no float edge below %g", end)
	}
	checkBinRule(t, b, []binCase{
		{0.1, 0}, {9.85, n - 1}, {edge, n - 1},
		{end, -1}, {9.95, -1}, {9.999, -1}, {-0.1, -1},
	})
}

// On a Δ-multiple duration the rule keeps the old convention exactly: the
// last ulp below the duration is binned (and subtracted) in the last bin,
// the duration itself is past the end.
func TestBinnerUlpEdgeOnMultipleDuration(t *testing.T) {
	b, err := NewBinner(30, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(b.Series().Rate)
	checkBinRule(t, b, []binCase{{math.Nextafter(30, 0), n - 1}, {30, -1}})
}
