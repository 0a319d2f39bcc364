package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

const (
	// table1MaxIntervals caps every suite trace at two analysis intervals:
	// about 4.3 M packets per pass on the default 7-trace suite.
	table1MaxIntervals = 2
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// minPasses is the fewest timed passes a run makes, however short
	// --seconds is.
	minPasses = 3

	// suiteWarmup is the generator warm-up the experiments package runs
	// suite traces with. A store written with another warm-up fails the
	// stored pass's meta check, and a decomposed pass synthesising with
	// another one yields other summaries, so a drift fails checks.
	suiteWarmup = 60
	// partitionBuffer is how many records an interval sub-stream of the
	// decomposed pass holds in flight. It bounds how far the producer runs
	// ahead of the consumer and changes no output.
	partitionBuffer = 4096
)

var suiteDefs = []flow.Definition{flow.By5Tuple, flow.ByPrefix24}

func suiteOptions(seed int64) trace.SuiteOptions {
	return trace.SuiteOptions{MaxIntervals: table1MaxIntervals, Seed: seed}
}

func table1Options(seed int64) experiments.Options {
	return experiments.Options{Suite: suiteOptions(seed), Quiet: true}
}

// suiteConfig is the generator configuration the measurement pass runs a
// suite trace with.
func suiteConfig(spec trace.TraceSpec) trace.Config {
	cfg := spec.Config()
	cfg.Warmup = suiteWarmup
	return cfg
}

// table1Out is one Table I pass's output.
type table1Out struct {
	// digest covers the Table I text and every per-interval statistic of
	// both flow definitions.
	digest string
	pkts   int64
	sums   []trace.Summary
	stats  map[statKey]string // statText of every statistic
}

// statKey names one per-interval statistic of a pass.
type statKey struct {
	trace string
	index int
	def   flow.Definition
}

// statText renders every exported field of a statistic, floats with all
// their digits, so two texts are equal only when the values are.
func statText(s experiments.IntervalStat) string {
	return fmt.Sprintf("%s %v %d %v flows=%d discarded=%d mean=%v var=%v cov=%v lambda=%v s=%v s2od=%v model=%v b=%v",
		s.Trace, s.TargetBps, s.Index, s.Def, s.FlowCount, s.Discarded, s.MeasMean, s.MeasVar, s.MeasCoV,
		s.Lambda, s.MeanS, s.MeanS2oD, s.ModelCoV, s.FittedBRaw)
}

// runTable1 is one Table I pass: a fresh runner, its Table I text and its
// per-interval statistics.
func runTable1(opts experiments.Options) (table1Out, error) {
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return table1Out{}, err
	}
	defer r.Close()
	var buf bytes.Buffer
	if err := r.Table1(&buf); err != nil {
		return table1Out{}, err
	}
	out := table1Out{stats: map[statKey]string{}}
	for _, def := range suiteDefs {
		stats, err := r.Stats(def)
		if err != nil {
			return table1Out{}, err
		}
		for _, s := range stats {
			t := statText(s)
			buf.WriteString(t + "\n")
			out.stats[statKey{s.Trace, s.Index, s.Def}] = t
		}
	}
	if out.sums, err = r.Summaries(); err != nil {
		return table1Out{}, err
	}
	out.digest = digest(buf.Bytes())
	for _, s := range out.sums {
		out.pkts += s.Packets
	}
	return out, nil
}

// passLatencies are table1-synth's report latencies: the run time of each
// pass, from its start to its Table I text, in milliseconds.
func passLatencies(pt passTimes) []float64 {
	lat := make([]float64, len(pt.run))
	for i, r := range pt.run {
		lat[i] = r * 1000
	}
	return lat
}

func runTable1Synth(c runCfg, o *outcome) error {
	opts := table1Options(c.seed)
	want := recordedDigest(recorded.Table1, c.seed)
	var ref string
	setupS, err := setups(setupReps, func(int) error {
		out, err := runTable1(opts)
		if err != nil {
			return err
		}
		o.check(want == "" || out.digest == want, "warm-up Table I digest %s, recorded %s", out.digest, want)
		o.check(ref == "" || out.digest == ref, "warm-up Table I digest %s, earlier warm-up %s", out.digest, ref)
		ref = out.digest
		return nil
	})
	if err != nil {
		return err
	}
	pt := timedPasses(o, c.seconds, minPasses, func() (int64, error) {
		out, err := runTable1(opts)
		if err != nil {
			return 0, err
		}
		o.check(out.digest == ref, "Table I digest %s, want %s", out.digest, ref)
		return out.pkts, nil
	})
	fmt.Printf("digest table1 %s (recorded: %t)\n", ref, want != "")
	endToEnd(o, setupS, pt, passLatencies(pt), "passes, run time from pass start to Table I text")
	return nil
}

// decomp is one traced Table I measurement pass assembled from the layers'
// public functions: the calling goroutine (locked to its thread, so its
// CPU clock separates work from waiting) synthesises every suite trace
// through an interval partitioner, and one consumer goroutine measures the intervals the way
// the experiments scheduler's workers do. It is the serial stage chain of
// the real pass, with a span around every call into a layer.
type decomp struct {
	specs   []trace.TraceSpec
	delta   float64
	kernels [3]*core.AvgVarKernel
}

type decompOut struct {
	sums              []trace.Summary
	pkts              int64
	flows, intervals  int64
	stats             map[statKey]string // statText of every statistic computed
	wall              time.Duration
	producer, workers *recorder
}

// newDecomp builds the decomposed pass of the suite opts configures, with
// the suite's specs and Δ taken from an experiments runner.
func newDecomp(opts experiments.Options) (*decomp, error) {
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	d := &decomp{specs: r.Specs(), delta: r.Delta()}
	for b := range d.kernels {
		k, err := core.NewAvgVarKernel(b, d.delta)
		if err != nil {
			return nil, err
		}
		d.kernels[b] = k
	}
	return d, nil
}

// intervalTask is one partitioned interval handed to the consumer.
type intervalTask struct {
	is   *flow.IntervalStream
	spec trace.TraceSpec
}

// pass runs the decomposed pass. want holds the statistics of the real
// experiments pass: the decomposed pass models exactly those intervals, so
// comparing its statistics with want checks it did the same work.
func (d *decomp) pass(traced bool, want map[statKey]string) (decompOut, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	epoch := time.Now()
	out := decompOut{stats: map[statKey]string{}, producer: newRecorder(traced, epoch), workers: newRecorder(traced, epoch)}
	out.producer.cpuClock = true
	prod := out.producer

	// Room for every interval of the suite, so a handoff never blocks.
	tasks := make(chan intervalTask, 1024)
	consErr := make(chan error, 1)
	go func() { consErr <- d.consume(tasks, out.workers, want, &out) }()

	var prodErr error
	for _, spec := range d.specs {
		sum, err := d.produce(spec, prod, tasks)
		if err != nil {
			prodErr = fmt.Errorf("%s: %w", spec.Name, err)
			break
		}
		out.sums = append(out.sums, sum)
		out.pkts += sum.Packets
	}
	close(tasks)
	if err := <-consErr; prodErr == nil {
		prodErr = err
	}
	out.wall = time.Since(epoch)
	return out, prodErr
}

// produce streams one trace through a fresh interval partitioner.
func (d *decomp) produce(spec trace.TraceSpec, prod *recorder, tasks chan<- intervalTask) (trace.Summary, error) {
	cfg := suiteConfig(spec)
	part, err := flow.NewIntervalPartitioner(spec.IntervalSec, cfg.Duration, partitionBuffer, func(is *flow.IntervalStream) error {
		tasks <- intervalTask{is: is, spec: spec}
		return nil
	})
	if err != nil {
		return trace.Summary{}, err
	}
	sink := func(blk *trace.Block) error {
		id := prod.begin("flow.partition")
		err := part.AddBlock(blk)
		prod.end(id)
		return err
	}
	id := prod.begin("trace.synth")
	sum, err := trace.StreamBlocksCtx(context.Background(), cfg, sink)
	prod.end(id)
	if err != nil {
		part.Abort()
		return sum, err
	}
	id = prod.begin("flow.partition")
	err = part.Close()
	prod.end(id)
	return sum, err
}

// consume measures every interval it is handed, as one experiments worker
// does: rate binning and flow assembly per block, then flush and the
// model statistics per interval and flow definition.
func (d *decomp) consume(tasks <-chan intervalTask, rec *recorder, want map[statKey]string, out *decompOut) error {
	meas, err := flow.NewMeasurer(suiteDefs, flow.DefaultTimeout)
	if err != nil {
		for tk := range tasks {
			drain(tk.is)
		}
		return err
	}
	binner := &timeseries.Binner{}
	pop := &core.FlowPop{}
	var firstErr error
	for tk := range tasks {
		if firstErr != nil {
			drain(tk.is)
			continue
		}
		if err := d.measureInterval(tk, rec, meas, binner, pop, want, out); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

func drain(is *flow.IntervalStream) {
	for range is.Blocks() {
	}
}

func (d *decomp) measureInterval(tk intervalTask, rec *recorder, meas *flow.Measurer, binner *timeseries.Binner, pop *core.FlowPop, want map[statKey]string, out *decompOut) error {
	if err := binner.Reinit(tk.spec.IntervalSec, d.delta); err != nil {
		drain(tk.is)
		return err
	}
	meas.Reset()
	var addErr error
	for blk := range tk.is.Blocks() {
		if addErr != nil {
			continue
		}
		id := rec.begin("timeseries.bin")
		binner.AddBlock(blk)
		rec.end(id)
		id = rec.begin("flow.assemble")
		addErr = meas.AddBlock(blk)
		rec.end(id)
	}
	if addErr != nil {
		return addErr
	}
	id := rec.begin("flow.flush")
	results := meas.Flush()
	rec.end(id)
	out.intervals++
	for di, def := range suiteDefs {
		flows := results[di].Flows
		out.flows += int64(len(flows))
		key := statKey{tk.spec.Name, tk.is.Index, def}
		if _, ok := want[key]; !ok {
			continue // the experiments pass skipped this interval
		}
		series := binner.Series()
		series.Subtract(results[di].Discarded)
		st := experiments.IntervalStat{
			Trace: tk.spec.Name, TargetBps: tk.spec.TargetBps, Index: tk.is.Index, Def: def,
			FlowCount: len(flows), Discarded: len(results[di].Discarded),
			MeasMean: series.Mean(), MeasVar: series.Variance(), MeasCoV: series.CoV(),
			ModelCoV: map[int]float64{},
		}
		id := rec.begin("core.model")
		in, err := core.InputFromFlowsPop(pop, flows, tk.spec.IntervalSec)
		if err == nil {
			st.Lambda, st.MeanS, st.MeanS2oD = in.Lambda, in.MeanS, in.MeanS2OverD
			mu := in.Lambda * in.MeanS
			for b, k := range d.kernels {
				var v float64
				if v, err = k.AveragedVariance(in.Lambda, pop); err != nil {
					break
				}
				if mu > 0 {
					st.ModelCoV[b] = math.Sqrt(v) / mu
				}
			}
			if b, _, ferr := core.FitPowerB(st.MeasVar, in.Lambda, in.MeanS2OverD); ferr == nil {
				st.FittedBRaw = b
			}
		}
		rec.end(id)
		if err != nil {
			return err
		}
		out.stats[key] = statText(st)
	}
	return nil
}

// flowAllocsPerKpkt counts the heap allocations of the flow layer's
// per-interval cycle (Reset, AddBlock over every block, Flush) per thousand
// packets, on the second interval of the first suite trace after the first
// one warmed the measurer. The garbage collector is off while it counts,
// so pooled objects are never dropped and the count repeats exactly.
func (d *decomp) flowAllocsPerKpkt() (float64, error) {
	ivs, err := captureIntervals(d.specs[0])
	if err != nil {
		return 0, err
	}
	if len(ivs) < 2 {
		return 0, fmt.Errorf("flow allocation count needs two intervals, trace %s has %d", d.specs[0].Name, len(ivs))
	}
	meas, err := flow.NewMeasurer(suiteDefs, flow.DefaultTimeout)
	if err != nil {
		return 0, err
	}
	cycle := func(bs []*trace.Block) (int64, error) {
		meas.Reset()
		var n int64
		for _, b := range bs {
			if err := meas.AddBlock(b); err != nil {
				return 0, err
			}
			n += int64(b.Len())
		}
		meas.Flush()
		return n, nil
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := cycle(ivs[0]); err != nil {
		return 0, err
	}
	m0 := mallocs()
	n, err := cycle(ivs[1])
	m1 := mallocs()
	if err != nil || n == 0 {
		return 0, fmt.Errorf("flow allocation count: %d packets, %v", n, err)
	}
	return float64(m1-m0) / (float64(n) / 1000), nil
}

// captureIntervals partitions one synthesised suite trace and returns
// owned copies of every interval's blocks.
func captureIntervals(spec trace.TraceSpec) ([][]*trace.Block, error) {
	cfg := suiteConfig(spec)
	// The capturing goroutine drains every stream in order, so handoffs
	// only wait for it; the buffer just lets the partitioner run ahead.
	streams := make(chan *flow.IntervalStream, 64)
	got := make(chan [][]*trace.Block, 1)
	go func() {
		var ivs [][]*trace.Block
		for is := range streams {
			var bs []*trace.Block
			for blk := range is.Blocks() {
				nb := &trace.Block{}
				nb.AppendRebased(blk, 0, blk.Len(), 0)
				bs = append(bs, nb)
			}
			ivs = append(ivs, bs)
		}
		got <- ivs
	}()
	part, err := flow.NewIntervalPartitioner(spec.IntervalSec, cfg.Duration, partitionBuffer, func(is *flow.IntervalStream) error {
		streams <- is
		return nil
	})
	if err == nil {
		if _, err = trace.StreamBlocksCtx(context.Background(), cfg, part.AddBlock); err == nil {
			err = part.Close()
		} else {
			part.Abort()
		}
	}
	close(streams)
	return <-got, err
}

// traceTable1Synth is table1-synth's traced run: the real pass (untraced)
// for its wall time and statistics, then decomposed passes alternating
// traced and untraced until the time is up.
func traceTable1Synth(c runCfg, o *outcome) error {
	m := layerMetrics()
	opts := table1Options(c.seed)
	d, err := newDecomp(opts)
	if err != nil {
		return err
	}
	if _, err := runTable1(opts); err != nil { // warm-up
		return err
	}
	want := recordedDigest(recorded.Table1, c.seed)
	// Three kinds of pass take turns until the time is up: the real
	// experiments pass (untraced, for its wall time and summaries), the
	// decomposed pass traced, and the decomposed pass untraced.
	var realWalls, serials, onRates, offRates, phase1 []float64
	var layers []map[string]float64
	var real table1Out
	var last decompOut // the last traced pass, whose spans are written out
	start := time.Now()
	for i := 0; i < 6 || time.Since(start).Seconds() < c.seconds; i++ {
		runtime.GC()
		if i%3 == 0 {
			t0 := time.Now()
			out, err := runTable1(opts)
			o.check(err == nil, "experiments pass: %v", err)
			if err != nil {
				continue
			}
			realWalls = append(realWalls, time.Since(t0).Seconds())
			o.check(want == "" || out.digest == want, "Table I digest %s, recorded %s", out.digest, want)
			real = out
			continue
		}
		traced := i%3 == 1
		out, err := d.pass(traced, real.stats)
		o.check(err == nil, "decomposed pass: %v", err)
		if err != nil {
			continue
		}
		o.check(slices.Equal(out.sums, real.sums), "decomposed pass summaries differ from the experiments pass")
		o.check(maps.Equal(out.stats, real.stats), "decomposed pass statistics differ from the experiments pass")
		rate := float64(out.pkts) / out.wall.Seconds()
		if !traced {
			offRates = append(offRates, rate)
			continue
		}
		onRates = append(onRates, rate)
		lt := aggregate(out.producer, out.workers)
		partCPU := lt.cpu["flow.partition"]
		l := map[string]float64{
			"trace.synth_s":            secs(lt.self["trace.synth"]),
			"flow.partition_s":         secs(partCPU),
			"flow.partition_blocked_s": secs(lt.total["flow.partition"] - partCPU),
			"flow.assemble_s":          secs(lt.total["flow.assemble"]),
			"flow.flush_s":             secs(lt.total["flow.flush"]),
			"timeseries.bin_s":         secs(lt.total["timeseries.bin"]),
			"core.model_s":             secs(lt.total["core.model"]),
		}
		// The serial stage chain of the pass. The serial generator runs phase
		// 1 inside trace.synth.
		serial := 0.0
		for _, k := range []string{"trace.synth_s", "flow.partition_s", "flow.assemble_s", "flow.flush_s", "timeseries.bin_s", "core.model_s"} {
			serial += l[k]
		}
		serials = append(serials, serial)
		layers = append(layers, l)
		put(m, "trace.pkts", float64(out.pkts))
		put(m, "flow.flows", float64(out.flows))
		put(m, "flow.intervals", float64(out.intervals))
		last = out
		p1, err := phase1Seconds(d.specs)
		o.check(err == nil, "phase 1: %v", err)
		phase1 = append(phase1, p1)
	}
	if len(layers) == 0 || len(realWalls) == 0 {
		return fmt.Errorf("no traced pass completed")
	}
	writeSpans(c, last.producer, last.workers)
	layerMedian := func(k string) float64 {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[k])
		}
		return median(vs)
	}
	put(m, "experiments.speedup", median(serials)/median(realWalls))
	for k := range layers[0] {
		put(m, k, layerMedian(k))
	}
	put(m, "trace.phase1_s", median(phase1))
	put(m, "tracing.overhead_pct", overheadPct(offRates, onRates))
	allocs, err := d.flowAllocsPerKpkt()
	o.check(err == nil, "flow allocation count: %v", err)
	put(m, "flow.allocs_per_kpkt", allocs)
	fmt.Printf("traced passes %d, untraced passes %d, experiments passes %d (median %.3f s)\n", len(onRates), len(offRates), len(realWalls), median(realWalls))
	setLayers(o, m)
	return nil
}

// phase1Seconds times trace.Programs, the generator's phase-1 flow-program
// pass, over every suite trace. The decomposed pass does not call it: the
// serial generator runs phase 1 inside trace.StreamBlocksCtx.
func phase1Seconds(specs []trace.TraceSpec) (float64, error) {
	t0 := time.Now()
	for _, spec := range specs {
		if _, _, err := trace.Programs(suiteConfig(spec)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// putWrite records the layer times of a traced store write.
func putWrite(m map[string]metric, rec *recorder, bytes int64) {
	lt := aggregate(rec)
	put(m, "trace.synth_s", secs(lt.self["trace.synth"]))
	put(m, "store.write_s", secs(lt.total["store.write"]))
	put(m, "store.bytes_written", float64(bytes))
}

func writeStoreTraced(path string, cfg trace.Config, rec *recorder) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	meta := store.Meta{Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup, Lambda: cfg.Lambda}
	w, err := store.Create(path, meta, store.Options{})
	if err != nil {
		return 0, err
	}
	defer w.Abort()
	id := rec.begin("trace.synth")
	sum, err := trace.StreamBlocksCtx(context.Background(), cfg, func(blk *trace.Block) error {
		id := rec.begin("store.write")
		err := w.AddBlock(blk)
		rec.end(id)
		return err
	})
	rec.end(id)
	if err != nil {
		return 0, err
	}
	id = rec.begin("store.write")
	err = w.Close(sum)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
