package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// suiteOpts is one invocation's settings.
type suiteOpts struct {
	Seed uint64
	// Seeds is how many seeds, derived from Seed, each workload is
	// timed at; Repeats is the timed repeats at each of them.
	Seeds   int
	Repeats int
	// Trace selects the runs made per workload: 0 = timed repeats and
	// the check run only (end-to-end metrics), 1 or -1 = also the traced
	// run and the layer replay (per-layer metrics).
	Trace      int
	OutDir     string
	CPUProfile string
	MemProfile string
}

// seedGroup is the runs of one workload at one seed. They all simulate
// the same thing, so their digests must be equal and every timed repeat
// did identical work.
type seedGroup struct {
	Seed    uint64
	Repeats []*runResult // the timed repeats
	Digest  string       // of the first run accounted
}

// fastestNs is the shortest of the group's timed windows.
func (g *seedGroup) fastestNs() int64 {
	windows := make([]int64, len(g.Repeats))
	for i, r := range g.Repeats {
		windows[i] = r.windowNs()
	}
	return fastest(windows)
}

// subSeed derives the i-th seed of a run from its -seed: the seed
// itself first, so that a one-seed report simulates exactly what
// -seed names, then splitmix64 steps away from it.
func subSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Def workloadDef
	// Groups holds the timed repeats, one group per seed. Groups[0] is
	// at the -seed itself; the check run, the traced run and the layer
	// metrics belong to it.
	Groups []*seedGroup
	E2E    values
	Layers values
	// Spreads holds, for each host metric, the per-repeat median, min
	// and max: the noise the reported value was extracted from.
	Spreads   map[string]spread
	Attempted int64
	Failed    int64
	Problems  []string
	TraceFile string
}

// account folds one run at g's seed into the workload's correctness
// totals: its own failures, and the whole run if its digest departs
// from that of the group's first run.
func (wr *workloadResult) account(g *seedGroup, label string, r *runResult) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	for _, v := range r.Violations {
		wr.Problems = append(wr.Problems, fmt.Sprintf("%s: audit: %s", label, v))
	}
	if n := r.Failed - int64(len(r.Violations)); n > 0 {
		wr.Problems = append(wr.Problems, fmt.Sprintf("%s: %d ops lost or stranded", label, n))
	}
	if g.Digest == "" {
		g.Digest = r.Digest
	} else if r.Digest != g.Digest {
		wr.Failed += r.Attempted - r.Failed
		wr.Problems = append(wr.Problems, fmt.Sprintf("%s: digest %.12s differs from the first repeat's %.12s", label, r.Digest, g.Digest))
	}
}

// runSuite measures the selected workloads: at each of o.Seeds seeds, k
// timed repeats, interleaved round-robin across seeds and workloads (so
// slow drift of the host hits every workload alike, and the repeats of
// one seed lie as far apart as the run allows: a burst of interference
// then spoils one of them, not all); one audited check run each; then,
// unless Trace is 0, one traced run each with the layer replay.
func runSuite(selected []workloadDef, o suiteOpts) ([]*workloadResult, error) {
	results := make([]*workloadResult, len(selected))
	for i, w := range selected {
		results[i] = &workloadResult{Def: w, Spreads: map[string]spread{}}
		for s := 0; s < o.Seeds; s++ {
			results[i].Groups = append(results[i].Groups, &seedGroup{Seed: subSeed(o.Seed, s)})
		}
	}
	for rep := 0; rep < o.Repeats; rep++ {
		for s := 0; s < o.Seeds; s++ {
			for _, wr := range results {
				g := wr.Groups[s]
				r, err := runOnce(wr.Def, g.Seed, runOpts{})
				if err != nil {
					return nil, err
				}
				fmt.Printf("# %-16s seed %d/%d repeat %d/%d  setup %8.1f ms  window %7.3f s  %5d ticks  digest %.12s\n",
					wr.Def.Name, s+1, o.Seeds, rep+1, o.Repeats, ms(r.setupNs()), float64(r.windowNs())/1e9, r.Ticks, r.Digest)
				g.Repeats = append(g.Repeats, r)
				wr.account(g, fmt.Sprintf("seed %d repeat %d", g.Seed, rep+1), r)
			}
		}
	}
	for _, wr := range results {
		wr.endToEnd()
		if err := wr.checkRun(); err != nil {
			return nil, err
		}
		if o.Trace != 0 {
			if err := wr.tracedRun(o); err != nil {
				return nil, err
			}
		}
		wr.E2E[opsFailedFrac] = ratio(float64(wr.Failed), float64(wr.Attempted))
	}
	return results, nil
}

// endToEnd computes the end-to-end metrics from the untraced repeats.
// Host time is the fastest of each seed's repeats, summed over the
// seeds; the model's outcomes are averaged over the seeds, which at one
// seed leaves them as the simulator printed them.
func (wr *workloadResult) endToEnd() {
	var setups, heaps, rates []float64
	var ops, iops, ifMean, latMean, jct float64
	var hostNs int64
	for _, g := range wr.Groups {
		for _, r := range g.Repeats {
			setups = append(setups, float64(r.setupNs())/1e9)
			heaps = append(heaps, float64(r.LiveHeap)/1e6)
			rates = append(rates, ratio(r.Ops, float64(r.windowNs())/1e9))
		}
		first := g.Repeats[0]
		hostNs += g.fastestNs()
		ops += first.Ops
		iops += first.IOPS
		ifMean += first.IFMean
		latMean += first.LatMean
		jct += first.JCTP50
	}
	n := float64(len(wr.Groups))
	wr.Spreads["setup_s"] = spreadOf(setups)
	wr.Spreads["live_heap_mb"] = spreadOf(heaps)
	wr.Spreads["sim_ops_per_s"] = spreadOf(rates)
	wr.E2E = values{
		"setup_s":              median(setups),
		"sim_ops_per_s":        ratio(ops, float64(hostNs)/1e9),
		"live_heap_mb":         median(heaps),
		"model_iops":           iops / n,
		"model_if_mean":        ifMean / n,
		"model_lat_mean_ticks": latMean / n,
	}
	if wr.Def.ToCompletion {
		wr.E2E["model_jct_p50_ticks"] = jct / n
	}
}

// checkRun repeats the workload with an auditor attached and, for a
// parallel workload, on one worker: the digest must not notice either.
// A workload that is already audited and serial has nothing to check
// that its repeats did not.
func (wr *workloadResult) checkRun() error {
	g := wr.Groups[0]
	cfg := wr.Def.Config(g.Seed)
	if cfg.Audit != nil && cfg.Workers <= 1 {
		return nil
	}
	r, err := runOnce(wr.Def, g.Seed, runOpts{audit: true, workers: 1})
	if err != nil {
		return err
	}
	fmt.Printf("# %-16s check run (audited, 1 worker)  window %7.3f s\n", wr.Def.Name, float64(r.windowNs())/1e9)
	wr.account(g, "check run", r)
	return nil
}

// tracedRun makes the traced run, derives the per-layer metrics, runs
// the layer replay on the traced cluster's final state, and writes the
// span file and any profiles.
func (wr *workloadResult) tracedRun(o suiteOpts) error {
	w, g := wr.Def, wr.Groups[0]
	tr := newTracer(w.Name)

	stopCPU, err := startCPUProfile(o.CPUProfile, w.Name)
	if err != nil {
		return err
	}
	root := tr.begin("run")
	r, err := runOnce(w, g.Seed, runOpts{tracer: tr})
	tr.end(root)
	stopCPU()
	if err != nil {
		return err
	}
	fmt.Printf("# %-16s traced run  window %7.3f s\n", w.Name, float64(r.windowNs())/1e9)
	wr.account(g, "traced run", r)
	if err := writeHeapProfile(o.MemProfile, w.Name); err != nil {
		return err
	}

	var windows []float64
	for _, rep := range g.Repeats {
		windows = append(windows, float64(rep.windowNs()))
	}
	wr.Layers = inSituMetrics(tr, r, median(windows))

	// Replay before the extra runs below, then let the traced cluster
	// go: they should not be timed with its heap still live.
	replayed, err := replay(tr, w, g.Seed, r.Cluster)
	if err != nil {
		return err
	}
	for k, x := range replayed {
		wr.Layers[k] = x
	}
	r.Cluster = nil

	if w.ToCompletion {
		// The paper's headline shape: the same jobs under the Vanilla
		// balancer, one unrepeated run.
		root := tr.begin("run.vanilla")
		rv, err := runOnce(w, g.Seed, runOpts{tracer: tr, vanilla: true, audit: true})
		tr.end(root)
		if err != nil {
			return err
		}
		fmt.Printf("# %-16s vanilla run  %d ticks\n", w.Name, rv.Ticks)
		wr.Attempted += rv.Attempted
		wr.Failed += rv.Failed
		if rv.Failed > 0 {
			wr.Problems = append(wr.Problems, fmt.Sprintf("vanilla run: %d ops failed", rv.Failed))
		}
		wr.E2E["model_speedup_vs_vanilla"] = ratio(g.Repeats[0].IOPS, rv.IOPS)
		reb := tr.within(rv.Window, "balancer.Rebalance")
		wr.Layers["balancer.vanilla_rebalance_ms_per_epoch"] = ratio(ms(totalDur(reb)), float64(len(reb)))
	}
	if cfg := w.Config(g.Seed); cfg.Workers > 1 {
		// What the fan-out buys: the same window on one worker, twice.
		var serial []int64
		for i := 0; i < 2; i++ {
			r1, err := runOnce(w, g.Seed, runOpts{workers: 1})
			if err != nil {
				return err
			}
			fmt.Printf("# %-16s 1-worker run %d/2  window %7.3f s\n", w.Name, i+1, float64(r1.windowNs())/1e9)
			wr.account(g, fmt.Sprintf("1-worker run %d", i+1), r1)
			serial = append(serial, r1.windowNs())
		}
		wr.Layers["cluster.parallel_speedup_w2"] = ratio(float64(fastest(serial)), float64(g.fastestNs()))
	}

	wr.TraceFile, err = tr.writeFile(o.OutDir)
	return err
}

// startCPUProfile starts a CPU profile into dir/cpu-<workload>.pprof
// and returns the function that stops it; with no dir it does nothing.
func startCPUProfile(dir, workload string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu-"+workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile writes dir/mem-<workload>.pprof (allocations since
// process start, live objects as of a fresh GC).
func writeHeapProfile(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "mem-"+workload+".pprof"))
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
