package main

import (
	"testing"
	"time"
)

func ns(d int) time.Duration { return time.Duration(d) }

// Self time subtracts what the direct children cover, at every depth, and
// counts overlapping children once.
func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{name: "root", start: ns(0), end: ns(100), parent: -1},
		{name: "a", start: ns(10), end: ns(40), parent: 0},
		{name: "a.x", start: ns(20), end: ns(30), parent: 1},
		{name: "b", start: ns(50), end: ns(60), parent: 0},
		{name: "c", start: ns(55), end: ns(70), parent: 0}, // overlaps b
		{name: "other", start: ns(0), end: ns(5), parent: -1},
	}
	want := []time.Duration{100 - 30 - 20, 30 - 10, 10, 10, 15, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	lt := aggregate(&recorder{spans: spans})
	if lt.total["a"] != 30 || lt.self["a"] != 20 || lt.self["root"] != 50 {
		t.Errorf("aggregate: total a %d, self a %d, self root %d", lt.total["a"], lt.self["a"], lt.self["root"])
	}
}

// begin/end nest spans by call order, and a disabled recorder keeps none.
func TestRecorderNesting(t *testing.T) {
	r := newRecorder(true, time.Now())
	outer := r.begin("outer")
	inner := r.begin("inner")
	time.Sleep(time.Millisecond)
	r.end(inner)
	r.rename(inner, "renamed")
	r.end(outer)
	if len(r.spans) != 2 || r.spans[1].parent != 0 || r.spans[0].parent != -1 || r.spans[1].name != "renamed" {
		t.Fatalf("spans = %+v", r.spans)
	}
	self := selfTimes(r.spans)
	if self[0] > r.spans[0].end-r.spans[0].start-time.Millisecond {
		t.Errorf("outer self time %v does not exclude the inner millisecond", self[0])
	}
	off := newRecorder(false, time.Now())
	off.end(off.begin("x"))
	if len(off.spans) != 0 {
		t.Errorf("disabled recorder kept %d spans", len(off.spans))
	}
}
