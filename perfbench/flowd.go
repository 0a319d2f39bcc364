package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

const (
	// flowdTrace is the suite trace flowd-replay replays: trace-3, the
	// busiest, so that per-packet work outweighs the checkpoints' fsyncs,
	// whose time the host's disk sets.
	flowdTrace = 2
	// flowdEpochSec is the length of the stored trace; the replay source
	// loops it flowdEpochs times.
	flowdEpochSec = 300
	flowdEpochs   = 4
	// flowdIntervalSec is the daemon's analysis interval: 120 intervals a
	// pass, closed by the stream itself.
	flowdIntervalSec = 10
	// flowdCheckpointSec is the stream time between checkpoints: every
	// sixth interval, 20 a pass. Each checkpoint fsyncs twice, and with a
	// checkpoint every interval the disk's fsync time set the pass's wall
	// time: runs whose CPU time agreed within 5% differed twofold in
	// packets per second.
	flowdCheckpointSec = 6 * flowdIntervalSec
	// flowdDelta is the rate averaging interval Δ of the link's pipeline.
	flowdDelta = 0.2
	// flowdQueueLen is the link's ingest queue depth in blocks, set
	// explicitly so that the traced pass's queue matches it.
	flowdQueueLen = 4
)

// flowdFixture is flowd-replay's input: one stored suite trace, open.
type flowdFixture struct {
	dir string
	rd  *store.Reader
}

func flowdTraceConfig(seed int64) (trace.Config, error) {
	specs, err := trace.DefaultSuite(suiteOptions(seed))
	if err != nil {
		return trace.Config{}, err
	}
	cfg := specs[flowdTrace].Config()
	cfg.Duration = flowdEpochSec
	cfg.Warmup = suiteWarmup
	return cfg, nil
}

// newFlowdFixture generates the replay store into dir and opens it.
func newFlowdFixture(dir string, seed int64) (*flowdFixture, error) {
	cfg, err := flowdTraceConfig(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "replay.fstore")
	if _, err := store.Generate(context.Background(), path, cfg, 0, store.Options{}); err != nil {
		return nil, err
	}
	return openFlowdFixture(dir, path)
}

func openFlowdFixture(dir, path string) (*flowdFixture, error) {
	rd, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	return &flowdFixture{dir: dir, rd: rd}, nil
}

func (fx *flowdFixture) close() {
	fx.rd.Close()
	os.RemoveAll(fx.dir)
}

func (fx *flowdFixture) source() *service.ReplaySource {
	return &service.ReplaySource{Reader: fx.rd, Epochs: flowdEpochs}
}

// packets is what one pass must ingest: every stored packet, every epoch.
func (fx *flowdFixture) packets() int64 { return fx.rd.Packets() * flowdEpochs }

func pipelineConfig(onInterval func(service.Report) error) service.PipelineConfig {
	return service.PipelineConfig{IntervalSec: flowdIntervalSec, Delta: flowdDelta, OnInterval: onInterval}
}

// reportLog digests a link's per-interval report series.
type reportLog struct {
	h         hash.Hash
	intervals int
}

func newReportLog() *reportLog { return &reportLog{h: sha256.New()} }

func (l *reportLog) add(rep service.Report) {
	fmt.Fprintf(l.h, "%+v\n", rep)
	l.intervals++
}

func (l *reportLog) digest() string { return fmt.Sprintf("%x", l.h.Sum(nil)[:12]) }

// linkOut is one replay pass's output.
type linkOut struct {
	digest    string
	intervals int
	stats     service.LinkStats
	latMs     map[int]float64 // report latency of every interval a block closed, by interval
}

// handoffSource wraps a block source and notes, for every analysis
// interval, when the source handed over the block that closes it. The
// pipeline closes interval k while it consumes the first block holding a
// packet of a later interval, and blocks are time-ordered, so that block
// is the first whose last packet lies past interval k.
type handoffSource struct {
	inner       service.BlockSource
	intervalSec float64
	epoch       time.Time

	mu     sync.Mutex
	next   int        // lowest interval no handed-over block has closed
	at     []handover // at[k]: the handover that closes interval k
	blocks int        // blocks handed over so far
}

type handover struct {
	at    time.Duration // since epoch
	block int           // ordinal of the block among those handed over
}

func (s *handoffSource) Stream(ctx context.Context, cur service.Cursor, fn func(int64, *trace.Block) error) error {
	return s.inner.Stream(ctx, cur, func(epoch int64, blk *trace.Block) error {
		if n := blk.Len(); n > 0 {
			if last := int(blk.Times[n-1] / s.intervalSec); last > s.next {
				h := handover{at: time.Since(s.epoch), block: s.blocks}
				s.mu.Lock()
				for ; s.next < last; s.next++ {
					s.at = append(s.at, h)
				}
				s.mu.Unlock()
			}
			s.blocks++
		}
		return fn(epoch, blk)
	})
}

// closer returns the handover that closed interval k.
func (s *handoffSource) closer(k int) (handover, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < 0 || k >= len(s.at) {
		return handover{}, false
	}
	return s.at[k], true
}

// runLink is one flowd-replay pass: a service.Link ingesting the replay
// source, checkpointing every flowdCheckpointSec into a fresh snapshot store.
func (fx *flowdFixture) runLink(ckDir string) (linkOut, error) {
	defer os.RemoveAll(ckDir)
	snap, err := snapshot.OpenStore(ckDir)
	if err != nil {
		return linkOut{}, err
	}
	src := &handoffSource{inner: fx.source(), intervalSec: flowdIntervalSec, epoch: time.Now()}
	log := newReportLog()
	lat := map[int]float64{}
	link, err := service.NewLink(service.LinkConfig{
		Name:   "replay",
		Source: src,
		Pipeline: pipelineConfig(func(rep service.Report) error {
			now := time.Since(src.epoch)
			log.add(rep)
			if h, ok := src.closer(rep.Index); ok && !rep.Partial {
				lat[rep.Index] = ms(now - h.at)
			}
			return nil
		}),
		Store:           snap,
		CheckpointEvery: flowdCheckpointSec,
		QueueLen:        flowdQueueLen,
	})
	if err != nil {
		return linkOut{}, err
	}
	if err := link.Run(context.Background()); err != nil {
		return linkOut{}, err
	}
	return linkOut{digest: log.digest(), intervals: log.intervals, stats: link.Stats(), latMs: lat}, nil
}

// directReports drives a service.Pipeline straight from the replay source,
// with no link, queue or checkpoint: the reference report series a link
// pass must reproduce.
func (fx *flowdFixture) directReports() (linkOut, error) {
	log := newReportLog()
	p, err := service.NewPipeline(pipelineConfig(func(rep service.Report) error {
		log.add(rep)
		return nil
	}))
	if err != nil {
		return linkOut{}, err
	}
	err = fx.source().Stream(context.Background(), service.Cursor{}, func(_ int64, blk *trace.Block) error {
		return p.AddBlock(blk)
	})
	if err == nil {
		err = p.Drain()
	}
	return linkOut{digest: log.digest(), intervals: log.intervals}, err
}

// checkLink counts one pass's correctness checks.
func checkLink(o *outcome, fx *flowdFixture, out linkOut, ref string) {
	o.check(out.digest == ref, "report series digest %s, want %s", out.digest, ref)
	o.check(out.stats.Packets == fx.packets(), "link measured %d packets, the store replays %d", out.stats.Packets, fx.packets())
	o.check(out.stats.ShedPackets == 0 && out.stats.ShedBlocks == 0, "link shed %d packets", out.stats.ShedPackets)
	o.check(out.stats.Restores == 0, "link restored %d times", out.stats.Restores)
	o.check(out.intervals >= 100, "pass closed %d intervals, want at least 100", out.intervals)
}

func runFlowdReplay(c runCfg, o *outcome) error {
	var fx *flowdFixture
	var warm []linkOut
	setupS, err := setups(setupReps, func(i int) error {
		if fx != nil {
			fx.close()
		}
		var err error
		if fx, err = newFlowdFixture(filepath.Join(c.tmp, fmt.Sprintf("flowd-%d", i)), c.seed); err != nil {
			return err
		}
		out, err := fx.runLink(filepath.Join(c.tmp, "ckpt-warm"))
		warm = append(warm, out)
		return err
	})
	if err != nil {
		return err
	}
	defer fx.close()
	// Every pass must reproduce the report series of the pipeline driven
	// without a link: the recorded digest, or for a seed not recorded, one
	// computed here.
	ref := recordedDigest(recorded.Flowd, c.seed)
	if ref == "" {
		direct, err := fx.directReports()
		if err != nil {
			return err
		}
		ref = direct.digest
	}
	for _, w := range warm {
		checkLink(o, fx, w, ref)
	}
	// Each interval's report latency is its median over the passes: every
	// pass replays the same packets, so an interval costs the same work in
	// each, and a vCPU preempted during one pass's close of it does not set
	// the figure. This is the latencies' steal correction: a close takes
	// milliseconds, so steal either hits it or not, and scaling by a pass's
	// steal share as well (as pass times are) would correct it twice.
	byInterval := map[int][]float64{}
	pass := 0
	pt := timedPasses(o, c.seconds, minPasses, func() (int64, error) {
		pass++
		out, err := fx.runLink(filepath.Join(c.tmp, fmt.Sprintf("ckpt-%d", pass)))
		if err != nil {
			return 0, err
		}
		checkLink(o, fx, out, ref)
		for k, l := range out.latMs {
			byInterval[k] = append(byInterval[k], l)
		}
		return out.stats.Packets, nil
	})
	var lat []float64
	for _, ls := range byInterval {
		lat = append(lat, median(ls))
	}
	fmt.Printf("digest flowd %s (recorded: %t), %d packets and %d intervals a pass\n", ref, recordedDigest(recorded.Flowd, c.seed) != "", fx.packets(), warm[0].intervals)
	endToEnd(o, setupS, pt, lat, fmt.Sprintf("intervals, closing block handed over to OnInterval report, each the median of %d passes", len(pt.run)))
	return nil
}

// tracedLinkOut is one decomposed replay pass.
type tracedLinkOut struct {
	digest             string
	pkts               int64
	checkpoints        int64
	checkpointBytes    int64
	wall               time.Duration
	producer, consumer *recorder
}

// tracedLink is service.Link.Run assembled from public calls, with spans:
// a producer goroutine streams the replay source into an owned-block queue
// of the link's depth, and the consumer feeds the pipeline and checkpoints
// as often as the link does, then drains. Its report series and
// packet count are checked against the link's.
func (fx *flowdFixture) tracedLink(traced bool, ckDir string) (tracedLinkOut, error) {
	defer os.RemoveAll(ckDir)
	snap, err := snapshot.OpenStore(ckDir)
	if err != nil {
		return tracedLinkOut{}, err
	}
	log := newReportLog()
	p, err := service.NewPipeline(pipelineConfig(func(rep service.Report) error {
		log.add(rep)
		return nil
	}))
	if err != nil {
		return tracedLinkOut{}, err
	}
	epoch := time.Now()
	out := tracedLinkOut{producer: newRecorder(traced, epoch), consumer: newRecorder(traced, epoch)}
	prod, cons := out.producer, out.consumer

	type item struct {
		epoch int64
		blk   *trace.Block
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan item, flowdQueueLen)
	var prodErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		id := prod.begin("store.replay")
		prodErr = fx.source().Stream(ctx, service.Cursor{}, func(e int64, blk *trace.Block) error {
			id := prod.begin("service.enqueue")
			defer prod.end(id)
			ob := trace.GetBlock()
			ob.AppendRebased(blk, 0, blk.Len(), 0)
			bid := prod.begin("service.source_blocked")
			defer prod.end(bid)
			select {
			case ch <- item{epoch: e, blk: ob}:
				return nil
			case <-ctx.Done():
				trace.PutBlock(ob)
				return ctx.Err()
			}
		})
		prod.end(id)
	}()

	checkpoint := func(cur service.Cursor) error {
		id := cons.begin("service.checkpoint")
		defer cons.end(id)
		secs := append(p.Snapshot(), service.EncodeCursor(cur))
		sid := cons.begin("snapshot.save")
		_, err := snap.Save(secs)
		cons.end(sid)
		if err != nil {
			return err
		}
		out.checkpoints++
		for _, s := range secs {
			out.checkpointBytes += int64(len(s.Data))
		}
		return nil
	}
	var cur service.Cursor
	var runErr error
	lastCkpt := p.StreamTime()
	for it := range ch {
		if runErr != nil {
			trace.PutBlock(it.blk)
			continue
		}
		before := p.Interval()
		id := cons.begin("service.ingest")
		err := p.AddBlock(it.blk)
		cons.end(id)
		if p.Interval() != before {
			cons.rename(id, "service.close")
		}
		n := int64(it.blk.Len())
		trace.PutBlock(it.blk)
		if err != nil {
			runErr = err
			cancel()
			continue
		}
		if it.epoch != cur.Epoch {
			cur = service.Cursor{Epoch: it.epoch}
		}
		cur.Packets += n
		out.pkts += n
		if p.StreamTime()-lastCkpt >= flowdCheckpointSec {
			if runErr = checkpoint(cur); runErr != nil {
				cancel()
			}
			lastCkpt = p.StreamTime()
		}
	}
	<-done
	if runErr == nil {
		runErr = prodErr
	}
	if runErr == nil {
		runErr = p.Drain()
	}
	if runErr == nil {
		runErr = checkpoint(cur)
	}
	out.wall = time.Since(epoch)
	out.digest = log.digest()
	return out, runErr
}

// serviceAllocsPerKpkt counts the heap allocations of Pipeline.AddBlock
// per thousand packets over the second half of one replay epoch, after the
// first half warmed the pipeline, with the garbage collector off so pooled
// objects are never dropped and the count repeats exactly.
func (fx *flowdFixture) serviceAllocsPerKpkt() (float64, error) {
	var blocks []*trace.Block
	err := fx.rd.Stream(context.Background(), 0, func(blk *trace.Block) error {
		nb := &trace.Block{}
		nb.AppendRebased(blk, 0, blk.Len(), 0)
		blocks = append(blocks, nb)
		return nil
	})
	if err != nil {
		return 0, err
	}
	p, err := service.NewPipeline(pipelineConfig(nil))
	if err != nil {
		return 0, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	half := len(blocks) / 2
	for _, b := range blocks[:half] {
		if err := p.AddBlock(b); err != nil {
			return 0, err
		}
	}
	var n int64
	m0 := mallocs()
	for _, b := range blocks[half:] {
		if err := p.AddBlock(b); err != nil {
			return 0, err
		}
		n += int64(b.Len())
	}
	m1 := mallocs()
	if n == 0 {
		return 0, fmt.Errorf("service allocation count: no packets")
	}
	return float64(m1-m0) / (float64(n) / 1000), nil
}

func traceFlowdReplay(c runCfg, o *outcome) error {
	m := layerMetrics()
	dir := filepath.Join(c.tmp, "flowd")
	path := filepath.Join(dir, "replay.fstore")
	cfg, err := flowdTraceConfig(c.seed)
	if err != nil {
		return err
	}
	rec := newRecorder(true, time.Now())
	n, err := writeStoreTraced(path, cfg, rec)
	if err != nil {
		return err
	}
	putWrite(m, rec, n)
	fx, err := openFlowdFixture(dir, path)
	if err != nil {
		return err
	}
	defer fx.close()
	ref, err := fx.directReports()
	if err != nil {
		return err
	}
	want := recordedDigest(recorded.Flowd, c.seed)
	o.check(want == "" || ref.digest == want, "direct pipeline report digest %s, recorded %s", ref.digest, want)
	warm, err := fx.runLink(filepath.Join(c.tmp, "ckpt-warm"))
	if err != nil {
		return err
	}
	checkLink(o, fx, warm, ref.digest)

	var onRates, offRates []float64
	var layers []map[string]float64
	var last tracedLinkOut // the last traced pass, whose spans are written out
	start := time.Now()
	for i := 0; i < 4 || time.Since(start).Seconds() < c.seconds; i++ {
		traced := i%2 == 0
		runtime.GC()
		out, err := fx.tracedLink(traced, filepath.Join(c.tmp, fmt.Sprintf("ckpt-%d", i)))
		o.check(err == nil, "decomposed link pass: %v", err)
		if err != nil {
			continue
		}
		o.check(out.digest == ref.digest, "decomposed link report digest %s, want %s", out.digest, ref.digest)
		o.check(out.pkts == fx.packets(), "decomposed link measured %d packets, want %d", out.pkts, fx.packets())
		o.check(out.checkpoints == warm.stats.Checkpoints, "decomposed link wrote %d checkpoints, the link %d", out.checkpoints, warm.stats.Checkpoints)
		rate := float64(out.pkts) / out.wall.Seconds()
		if !traced {
			offRates = append(offRates, rate)
			continue
		}
		onRates = append(onRates, rate)
		lt := aggregate(out.producer, out.consumer)
		var closes []float64
		for _, d := range lt.durs["service.close"] {
			closes = append(closes, ms(d))
		}
		layers = append(layers, map[string]float64{
			"store.replay_s":           secs(lt.self["store.replay"]),
			"service.source_blocked_s": secs(lt.total["service.source_blocked"]),
			"service.ingest_s":         secs(lt.total["service.ingest"]),
			"service.close_p50_ms":     median(closes),
			"service.close_p90_ms":     percentile(closes, 90),
			"service.checkpoint_s":     secs(lt.total["service.checkpoint"]),
		})
		put(m, "trace.pkts", float64(out.pkts))
		put(m, "snapshot.checkpoint_bytes", float64(out.checkpointBytes)/float64(max(out.checkpoints, 1)))
		last = out
	}
	if len(layers) == 0 {
		return fmt.Errorf("no traced pass completed")
	}
	writeSpans(c, last.producer, last.consumer)
	for k := range layers[0] {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[k])
		}
		put(m, k, median(vs))
	}
	put(m, "tracing.overhead_pct", overheadPct(offRates, onRates))
	allocs, err := fx.serviceAllocsPerKpkt()
	o.check(err == nil, "service allocation count: %v", err)
	put(m, "service.allocs_per_kpkt", allocs)
	fmt.Printf("traced passes %d, untraced passes %d\n", len(onRates), len(offRates))
	setLayers(o, m)
	return nil
}
