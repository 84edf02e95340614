package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// sliceTicks is the grain at which a window's wall time is recorded
// and a traced run samples the heap.
const sliceTicks = 50

// epochTicks is the balancing epoch, set explicitly in every workload
// config so the harness's epoch-tick classification cannot drift from
// the cluster's.
const epochTicks = 10

// runOpts selects how one run of a workload departs from its timed
// configuration. The zero value is an untraced, timed repeat.
type runOpts struct {
	// tracer, when set, wraps the balancer, generator and sink, records
	// a span per tick and samples the Go runtime per slice.
	tracer *tracer
	// audit attaches an epoch-cadence auditor if the workload has none.
	audit bool
	// workers overrides Config.Workers when positive.
	workers int
	// vanilla swaps the balancer for balancer.NewVanilla().
	vanilla bool
}

// runResult is everything one run measured.
type runResult struct {
	NewNs, WarmupNs int64   // cluster.New, warm-up ticks
	Slices          []int64 // wall ns per sliceTicks window ticks (last may be partial)
	Ticks           int64   // timed window length
	Ops             float64 // ops completed in the window
	LiveHeap        uint64  // HeapAlloc after a GC at window end, cluster still referenced
	Digest          string
	Attempted       int64 // ops drawn from the client streams
	Failed          int64 // conservation breaks + ops stranded at the cap + audit violations
	Violations      []audit.Violation

	IOPS, IFMean, LatMean, JCTP50 float64

	// Traced runs only.
	Window  int // id of the "window" span
	Host    hostStats
	Events  int64
	Cluster *cluster.Cluster // kept for the counts and the replay
}

func (r *runResult) setupNs() int64  { return r.NewNs + r.WarmupNs }
func (r *runResult) windowNs() int64 { return sumInt64(r.Slices) }

// hostStats are Go-runtime deltas over the timed window of a traced run.
type hostStats struct {
	Mallocs, AllocBytes uint64
	HeapInusePeak       uint64
	GCCPUFrac           float64
}

// buildConfig materialises a workload's configuration for one run.
func buildConfig(w workloadDef, seed uint64, o runOpts) (cluster.Config, *countingSink) {
	cfg := w.Config(seed)
	cfg.EpochTicks = epochTicks
	var sink *countingSink
	if w.Events {
		var s obs.Sink = obs.NewJSONL(io.Discard)
		if o.tracer != nil {
			sink = &countingSink{Sink: s}
			s = sink
		}
		cfg.Bus = obs.NewBus(s)
	}
	if o.audit && cfg.Audit == nil {
		cfg.Audit = audit.New(audit.Options{})
	}
	if o.workers > 0 {
		cfg.Workers = o.workers
	}
	if o.vanilla {
		cfg.Balancer = experiment.MakeBalancer("Vanilla")
	}
	if o.tracer != nil {
		cfg.Balancer = tracedBalancer{cfg.Balancer, o.tracer}
		cfg.Workload = tracedGenerator{cfg.Workload, o.tracer}
	}
	return cfg, sink
}

// runOnce builds the workload's cluster, warms it up, and drives the
// timed window one Cluster.Step at a time on the calling goroutine.
func runOnce(w workloadDef, seed uint64, o runOpts) (*runResult, error) {
	tr := o.tracer
	cfg, sink := buildConfig(w, seed, o)
	res := &runResult{}

	// A run keeps as many threads busy as its cluster has workers and
	// no more. Left at NumCPU, the collector marks on a second core
	// whenever the host has one free, and how often that is on a shared
	// host is what the allocating workloads would then measure: with one
	// other busy process on this 2-core box full_stack lost 16% and
	// zipf_read 4%. On one core the collector's work is charged to the
	// simulator in full, whatever the neighbours do.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(1, cfg.Workers)))

	// Start every run from a collected heap, so the previous run's
	// garbage (hundreds of MB on the create workloads) is not charged
	// to this one's set-up.
	runtime.GC()

	spanNew := tr.begin("cluster.New")
	t0 := time.Now()
	c, err := cluster.New(cfg)
	res.NewNs = int64(time.Since(t0))
	tr.end(spanNew)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	step := func() {
		if w.RecoverAt > 0 && c.Tick() == w.RecoverAt {
			for _, r := range c.DownRanks() {
				c.RecoverMDS(r)
			}
		}
		name := "cluster.Step"
		if (c.Tick()+1)%epochTicks == 0 {
			name = "cluster.Step.epoch"
		}
		id := tr.begin(name)
		c.Step()
		tr.end(id)
	}

	spanWarmup := tr.begin("warmup")
	t0 = time.Now()
	for i := int64(0); i < w.Warmup; i++ {
		step()
	}
	res.WarmupNs = int64(time.Since(t0))
	tr.end(spanWarmup)
	res.Window = tr.begin("window")

	var hs *hostSampler
	if tr != nil {
		hs = startHostSampler()
	}
	ops0 := c.Metrics().TotalOps()
	last := time.Now()
	for res.Ticks < w.Ticks && !(w.ToCompletion && c.Done()) {
		step()
		res.Ticks++
		if res.Ticks%sliceTicks == 0 {
			now := time.Now()
			res.Slices = append(res.Slices, int64(now.Sub(last)))
			if hs != nil {
				hs.sample()
				now = time.Now()
			}
			last = now
		}
	}
	if res.Ticks%sliceTicks != 0 {
		res.Slices = append(res.Slices, int64(time.Since(last)))
	}
	tr.end(res.Window)
	if hs != nil {
		res.Host = hs.stop()
	}
	res.Ops = c.Metrics().TotalOps() - ops0

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.LiveHeap = ms.HeapAlloc

	rec := c.Metrics()
	res.IOPS = ratio(res.Ops, float64(res.Ticks))
	res.IFMean = rec.MeanIF()
	res.LatMean = rec.MeanLatency()
	res.JCTP50 = rec.JCTQuantile(0.5)

	h := sha256.New()
	if err := rec.WriteCSV(h); err != nil {
		return nil, err
	}
	if err := rec.WriteEpochCSV(h); err != nil {
		return nil, err
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))

	var pending int64
	for _, cl := range c.Clients() {
		res.Attempted += cl.Issued()
		pending += cl.PendingOps()
		if d := cl.Issued() - cl.OpsDone() - cl.PendingOps(); d != 0 {
			res.Failed += max(d, -d)
		}
	}
	if w.ToCompletion && !c.Done() {
		// Stranded at the tick cap; count at least one so an empty
		// queue behind an undrained stream still fails the run.
		res.Failed += max(pending, 1)
	}
	res.Violations = c.Auditor().Violations()
	res.Failed += int64(len(res.Violations))
	if sink != nil {
		res.Events = sink.n
	}
	if tr != nil {
		// Untraced runs drop their cluster, so that one is live at a time.
		res.Cluster = c
	}
	return res, nil
}

// hostSampler reads Go-runtime counters at the window's edges and the
// in-use heap at every slice boundary. It runs on traced runs only:
// ReadMemStats stops the world.
type hostSampler struct {
	start   runtime.MemStats
	peak    uint64
	samples []rtmetrics.Sample
	gc0     float64
	busy0   float64
}

const (
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

func startHostSampler() *hostSampler {
	hs := &hostSampler{samples: []rtmetrics.Sample{
		{Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricIdleCPU},
	}}
	hs.gc0, hs.busy0 = hs.cpu()
	runtime.ReadMemStats(&hs.start)
	hs.peak = hs.start.HeapInuse
	return hs
}

// cpu returns the runtime's GC and busy CPU-second estimates. The
// runtime refreshes them at the end of each GC cycle, so a window in
// which no cycle ran reads a zero delta.
func (hs *hostSampler) cpu() (gc, busy float64) {
	rtmetrics.Read(hs.samples)
	v := func(i int) float64 {
		if hs.samples[i].Value.Kind() != rtmetrics.KindFloat64 {
			return 0
		}
		return hs.samples[i].Value.Float64()
	}
	return v(0), v(1) - v(2)
}

func (hs *hostSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > hs.peak {
		hs.peak = ms.HeapInuse
	}
}

func (hs *hostSampler) stop() hostStats {
	hs.sample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, busy := hs.cpu()
	return hostStats{
		Mallocs:       ms.Mallocs - hs.start.Mallocs,
		AllocBytes:    ms.TotalAlloc - hs.start.TotalAlloc,
		HeapInusePeak: hs.peak,
		GCCPUFrac:     ratio(gc-hs.gc0, busy-hs.busy0),
	}
}
