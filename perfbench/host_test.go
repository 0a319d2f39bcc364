package main

import (
	"math"
	"testing"
)

func TestStealShare(t *testing.T) {
	a := parseVMTicks("cpu  1000 10 200 5000 40 5 15 100 0 0")
	b := parseVMTicks("cpu  1600 10 300 9000 90 10 20 300 0 0")
	if a != (vmTicks{busy: 1230, steal: 100}) {
		t.Fatalf("parsed %+v", a)
	}
	// 600+100+5+5 = 710 busy ticks and 200 steal ticks between the two;
	// idle and iowait do not count.
	if got, want := stealShare(a, b), 200.0/910; math.Abs(got-want) > 1e-12 {
		t.Errorf("steal share %v, want %v", got, want)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("steal share with nothing run %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3"} {
		if v := parseVMTicks(bad); v != (vmTicks{}) {
			t.Errorf("parseVMTicks(%q) = %+v, want zero", bad, v)
		}
	}
}
