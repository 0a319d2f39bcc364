package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the enclosing span in the same recorder, -1 at the root
	cpu        time.Duration // thread CPU time inside the span (only when cpuClock is set)
}

// recorder keeps the spans of one goroutine in memory. Spans nest: begin
// pushes, end pops, and a span's parent is the span open when it began.
// A disabled recorder does nothing, so the same code runs traced and
// untraced and the difference is the tracing overhead.
type recorder struct {
	on    bool
	epoch time.Time
	// cpuClock, when set, also reads the calling thread's CPU clock at
	// begin and end. Only valid on a goroutine locked to its thread.
	cpuClock bool
	spans    []span
	stack    []int
}

func newRecorder(on bool, epoch time.Time) *recorder {
	return &recorder{on: on, epoch: epoch}
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	sp := span{name: name, parent: parent}
	if r.cpuClock {
		sp.cpu = -threadCPU()
	}
	sp.start = time.Since(r.epoch)
	r.spans = append(r.spans, sp)
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	sp := &r.spans[id]
	sp.end = time.Since(r.epoch)
	if r.cpuClock {
		sp.cpu += threadCPU()
	}
	r.stack = r.stack[:len(r.stack)-1]
}

// rename renames a span once its call has shown what it was.
func (r *recorder) rename(id int, name string) {
	if id >= 0 {
		r.spans[id].name = name
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (the union of their intervals, so
// overlapping children are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		var lo, hi time.Duration
		open := false
		for _, k := range kids {
			s, e := max(spans[k].start, sp.start), min(spans[k].end, sp.end)
			if e <= s {
				continue
			}
			switch {
			case !open:
				lo, hi, open = s, e, true
			case s > hi:
				covered += hi - lo
				lo, hi = s, e
			case e > hi:
				hi = e
			}
		}
		if open {
			covered += hi - lo
		}
		self[i] = sp.end - sp.start - covered
	}
	return self
}

// layerTimes aggregates a set of recorders into per-name totals: total
// duration, total self time, total thread CPU, and every duration (for
// percentiles).
type layerTimes struct {
	total, self, cpu map[string]time.Duration
	durs             map[string][]time.Duration
}

func aggregate(recs ...*recorder) layerTimes {
	lt := layerTimes{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		cpu:   map[string]time.Duration{},
		durs:  map[string][]time.Duration{},
	}
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, sp := range r.spans {
			d := sp.end - sp.start
			lt.total[sp.name] += d
			lt.self[sp.name] += self[i]
			lt.cpu[sp.name] += sp.cpu
			lt.durs[sp.name] = append(lt.durs[sp.name], d)
		}
	}
	return lt
}

// writeSpans writes the spans of a run's last traced pass, one per line
// (recorder, name, start and end in nanoseconds, parent, thread CPU), to
// .bench_build/spans-<workload>-<seed>.tsv.
func writeSpans(c runCfg, recs ...*recorder) {
	path := filepath.Join(c.root, ".bench_build", fmt.Sprintf("spans-%s-%d.tsv", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		return
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder\tname\tstart_ns\tend_ns\tparent\tcpu_ns")
	for ri, r := range recs {
		for _, sp := range r.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", ri, sp.name, sp.start, sp.end, sp.parent, sp.cpu)
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
}
