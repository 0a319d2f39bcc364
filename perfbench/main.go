// Command perfbench is the repository's benchmark. One invocation runs one
// workload in a fresh process and prints, as its last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1):
//
//	bash perfbench/run.sh --workload table1-synth --seed 1 --seconds 15 --trace 0
//
// Workloads, metrics and bounds are declared in BENCHMARK.json at the root
// of the checkout; perfbench/metrics.json defines each end-to-end metric
// and says which end-to-end metric each per-layer metric should move, on
// which workloads, and perfbench/spreads.json holds the spreads the bounds
// were set from. Every timed pass is preceded by runtime.GC(), set-up
// (including an untimed warm-up pass) is repeated and reported as a
// median, pass and set-up times are run times (wall time less the
// hypervisor's steal, see stopwatch), and all scratch files live under
// .bench_build/ in the checkout.
//
// Other modes:
//
//	bash perfbench/run.sh --selfcheck --seed 1000   # two sets of runs, agreement within the bounds
//	bash perfbench/run.sh --record-digests 0:99     # rewrite perfbench/digests.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCfg is one invocation's command line plus its scratch directory.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	// root is the checkout (the working directory); tmp is this run's
	// scratch directory under root/.bench_build, removed at exit.
	root, tmp string
}

// outcome accumulates a run's checks and metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// check counts one checked operation, failing it unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Printf("FAIL %s\n", fmt.Sprintf(format, args...))
	}
}

// set records a metric and prints it on its own human-readable line.
func (o *outcome) set(name string, v float64, unit, detail string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	if detail != "" {
		detail = "  (" + detail + ")"
	}
	fmt.Printf("metric %-28s %14.6g %-6s%s\n", name, v, unit, detail)
}

// workload is one benchmark workload: an end-to-end run and a traced run.
type workload struct {
	name   string
	run    func(runCfg, *outcome) error
	traced func(runCfg, *outcome) error
}

var workloads = []workload{
	{name: "table1-synth", run: runTable1Synth, traced: traceTable1Synth},
	{name: "flowd-replay", run: runFlowdReplay, traced: traceFlowdReplay},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: table1-synth or flowd-replay")
		seed    = flag.Int64("seed", 1, "workload seed (the same seed gives the same inputs)")
		seconds = flag.Float64("seconds", 15, "seconds of timed passes")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		selfchk = flag.Bool("selfcheck", false, "run every workload in two sets of runs, seeds from --seed on, and compare them against the bounds")
		record  = flag.String("record-digests", "", "lo:hi — recompute the output digests of seeds lo..hi into perfbench/digests.json")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fatal(fmt.Errorf("run from the root of a checkout of the repository: %w", err))
	}
	switch {
	case *selfchk:
		if err := selfcheck(root, *seed); err != nil {
			fatal(err)
		}
		return
	case *record != "":
		if err := recordDigests(root, *record); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if !(*seconds > 0) {
		fatal(fmt.Errorf("--seconds must be > 0, got %g", *seconds))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	watchLiveHeap()
	tmp, err := os.MkdirTemp(scratchRoot(root), fmt.Sprintf("run-%s-", w.name))
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	c := runCfg{workload: w.name, seed: *seed, seconds: *seconds, root: root, tmp: tmp}

	h := currentHost()
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *traced)
	o := newOutcome()
	run := w.run
	if *traced == 1 {
		run = w.traced
	}
	if err := run(c, o); err != nil {
		os.RemoveAll(tmp)
		fatal(err)
	}
	if o.attempted == 0 {
		os.RemoveAll(tmp)
		fatal(fmt.Errorf("no checked operation ran"))
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// scratchRoot is where runs keep their stores and checkpoints.
func scratchRoot(root string) string {
	dir := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setups times n independent set-ups and returns their median run time
// (see stopwatch.elapsed) in seconds. Each set-up must rebuild its state
// from scratch; the caller keeps the last one's.
func setups(n int, setup func(i int) error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		sw := startStopwatch()
		if err := setup(i); err != nil {
			return 0, err
		}
		_, run := sw.elapsed()
		ts = append(ts, run.Seconds())
	}
	return median(ts), nil
}

// passTimes are the per-pass measurements of a run's timed passes.
type passTimes struct {
	run, cpu, rate []float64 // run time (see stopwatch.elapsed), CPU time, packets per run second
	steal          []float64 // steal share over the pass
	heap           []float64 // largest live heap a GC cycle marked in the pass, MiB
}

// timedPasses runs pass, each time after runtime.GC(), until seconds have
// elapsed and at least minPasses passes ran. pass returns the packets it
// measured; a pass error counts as a failed operation.
func timedPasses(o *outcome, seconds float64, minPasses int, pass func() (int64, error)) passTimes {
	var pt passTimes
	start := time.Now()
	for tries := 0; tries < minPasses || time.Since(start).Seconds() < seconds; tries++ {
		runtime.GC()
		liveHeapPeak.Store(0)
		c0 := processCPU()
		sw := startStopwatch()
		pkts, err := pass()
		steal, run := sw.elapsed()
		cpu := (processCPU() - c0).Seconds()
		heap := float64(liveHeapPeak.Load()) / (1 << 20)
		o.check(err == nil, "pass %d: %v", len(pt.run), err)
		if err != nil {
			continue
		}
		pt.run = append(pt.run, run.Seconds())
		pt.steal = append(pt.steal, steal)
		pt.cpu = append(pt.cpu, cpu)
		pt.heap = append(pt.heap, heap)
		pt.rate = append(pt.rate, float64(pkts)/run.Seconds())
	}
	return pt
}

// endToEnd records the metrics every workload reports. latMs are the
// report latencies in milliseconds.
func endToEnd(o *outcome, setupS float64, pt passTimes, latMs []float64, latWhat string) {
	n := len(pt.run)
	fmt.Printf("passes pkts_per_s (steal share):")
	for i, r := range pt.rate {
		fmt.Printf(" %.4g (%.2f)", r, pt.steal[i])
	}
	fmt.Println()
	o.set("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupReps))
	o.set("pkts_per_s", median(pt.rate), "1/s", fmt.Sprintf("packets per run second, median of %d passes, spread %.3f", n, spread(pt.rate)))
	o.set("cpu_s", median(pt.cpu), "s", fmt.Sprintf("process user+sys per pass, median of %d", n))
	o.set("peak_heap_mb", median(pt.heap), "MiB", fmt.Sprintf("largest live heap a GC cycle marked in a pass, median of %d", n))
	failedShare := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Printf("metric %-28s %14.6g %-6s  (%d failed of %d checked operations)\n", "failed_share", failedShare, "1", o.failed, o.attempted)
	o.set("ok_share", 1-failedShare, "1", "1 - failed_share")
	note := fmt.Sprintf("%d %s", len(latMs), latWhat)
	if !percentileSupported(90, len(latMs)) {
		note += fmt.Sprintf("; fewer than %d beyond p90, highest supported percentile p%g", minBeyond, highestPercentile(len(latMs)))
	}
	o.set("report_latency_p50_ms", median(latMs), "ms", note)
	o.set("report_latency_p90_ms", percentile(latMs, 90), "ms", note)
}

// layerMetrics is the full per-layer metric set, every value zero until a
// workload measures it: a layer that does not run in a workload reads 0.
func layerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, l := range perLayer {
		m[l.name] = metric{Unit: l.unit}
	}
	return m
}

// perLayer names every per-layer metric with its unit, in BENCHMARK.json's
// order.
var perLayer = []struct{ name, unit string }{
	{"trace.phase1_s", "s"}, {"trace.synth_s", "s"}, {"trace.pkts", "count"},
	{"store.write_s", "s"}, {"store.bytes_written", "bytes"}, {"store.replay_s", "s"},
	{"flow.partition_s", "s"}, {"flow.partition_blocked_s", "s"},
	{"flow.assemble_s", "s"}, {"flow.flush_s", "s"},
	{"flow.flows", "count"}, {"flow.intervals", "count"}, {"flow.allocs_per_kpkt", "count"},
	{"timeseries.bin_s", "s"}, {"core.model_s", "s"}, {"experiments.speedup", "x"},
	{"service.ingest_s", "s"}, {"service.close_p50_ms", "ms"}, {"service.close_p90_ms", "ms"},
	{"service.checkpoint_s", "s"}, {"service.source_blocked_s", "s"},
	{"service.allocs_per_kpkt", "count"}, {"snapshot.checkpoint_bytes", "bytes"},
	{"tracing.overhead_pct", "%"},
}

// put sets one measured per-layer value.
func put(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// setLayers records per-layer metrics in a stable order.
func setLayers(o *outcome, vals map[string]metric) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		o.set(k, vals[k].Value, vals[k].Unit, "")
	}
}

// seconds converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// overheadPct is the share of untraced throughput lost to tracing.
func overheadPct(untraced, traced []float64) float64 {
	u, t := median(untraced), median(traced)
	if u == 0 || math.IsNaN(u) || math.IsNaN(t) {
		return 0
	}
	return (u - t) / u * 100
}
