package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// A cell is one independent simulation of an experiment's grid: its own
// cluster, built from its own config, on the experiment's seed.
type cell struct {
	// labels are the leading table cells of the row this cell becomes
	// (workload, balancer, ...); key prefixes the Values it records.
	labels []string
	key    string
	// bal names the balancer (MakeBalancer) and gen builds the generator.
	// Cells run concurrently and both are stateful, so simulate
	// constructs them per cell: two cells never share an object.
	bal string
	gen func() workload.Generator
	// shape is the plain-value rest of the config: sizes, rates,
	// capacities. Zero fields take the cluster defaults.
	shape cluster.Config
	// attach, when set, adds the cell's other stateful parts, built
	// fresh: a fault schedule, a replica, tenant or elastic manager, a
	// balancer MakeBalancer has no name for.
	attach func(cfg *cluster.Config)
	// drive, when set, replaces the default RunUntilDone(maxTicks) with
	// a staged run: scheduled MDS adds, crash/recover, phase-by-phase
	// Run, SettleDrains. What it observes on the way goes in run.marks.
	drive func(r *run, maxTicks int64)
	// mustFinish fails the experiment if any client is left unfinished.
	mustFinish bool
}

// A scenario lists an experiment's cells for the given options. Entries
// holding the same *scenario report on one shared run of it when RunAll
// is handed them side by side.
type scenario struct {
	cells func(opt Options) []cell
}

// A run is one cell's simulation. While runCells drives it, Cluster
// and policy are the cell's live cluster and balancer (drive steps act
// on them); once its columns are evaluated both are dropped, and the
// finished run keeps only its cell, its marks, the Recorder and each
// entry's evaluated row. Reports read nothing else.
type run struct {
	*cluster.Cluster
	cell
	policy balancer.Balancer
	marks  []int
	rec    *metrics.Recorder
	// rows holds, for every entry of the group with columns, the header
	// and this run's one row and keyed values.
	rows map[*entry]*Result
}

// Metrics returns the run's Recorder, which outlives its cluster.
func (r *run) Metrics() *metrics.Recorder { return r.rec }

// runCells simulates every cell and returns the runs in cell order. It
// is the one place a cluster is built, run and read: seed and auditor
// wiring, cluster.New, drive or RunUntilDone, the audit verdict, the
// finish check and the columns of every entry in the group; then the
// cluster is dropped, so peak memory is the pool width's clusters plus
// every finished cell's Recorder. Cells are independent and
// individually deterministic, so they fan out over
// min(GOMAXPROCS, len(cells)) workers and are collected by index; the
// error returned is the lowest-index cell's, whatever order the workers
// finished in.
func runCells(id string, opt Options, cells []cell, entries []*entry) ([]*run, error) {
	runs := make([]*run, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				runs[i], errs[i] = cells[i].simulate(opt, entries)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment %s: cell %d %v: %w", id, i, cells[i].labels, err)
		}
	}
	return runs, nil
}

func (cl cell) simulate(opt Options, entries []*entry) (*run, error) {
	cfg := cl.shape
	cfg.Seed, cfg.Balancer, cfg.Workload = opt.Seed, MakeBalancer(cl.bal), cl.gen()
	if cl.attach != nil {
		cl.attach(&cfg)
	}
	if opt.Audit {
		cfg.Audit = audit.New(audit.Options{})
	}
	if cfg.Faults != nil {
		// cluster.New schedules whatever it is handed; a cell that scripts
		// faults sets MDS explicitly, so the rank range is known here.
		if err := cfg.Faults.Validate(cfg.MDS); err != nil {
			return nil, err
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &run{Cluster: c, cell: cl, policy: cfg.Balancer, rec: c.Metrics(), rows: make(map[*entry]*Result)}
	if cl.drive != nil {
		cl.drive(r, opt.MaxTicks)
	} else {
		c.RunUntilDone(opt.MaxTicks)
	}
	if err := c.Auditor().Err(); err != nil {
		return nil, err
	}
	if cl.mustFinish && !c.Done() {
		return nil, fmt.Errorf("did not finish in %d ticks", opt.MaxTicks)
	}
	for _, e := range entries {
		if e.cols != nil {
			r.rows[e] = &Result{Values: make(map[string]float64)}
			tabulate(r.rows[e], []*run{r}, runKey, e.cols...)
		}
	}
	r.Cluster, r.policy = nil, nil
	return r, nil
}

// paper builds one of the paper's workloads at the options' scale.
func paper(name string, opt Options) workload.Generator { return MakeWorkload(name, opt.Scale) }

// grid lists one copy of the prototype cell per workload x balancer
// pair, balancers innermost, labelled {workload, balancer}; key picks
// the Values prefix and gen builds the generator a workload name stands
// for.
func grid(workloads, balancers []string, key func(w, b string) string, proto cell,
	gen func(w string, opt Options) workload.Generator) *scenario {
	return &scenario{func(opt Options) []cell {
		var cells []cell
		for _, w := range workloads {
			for _, b := range balancers {
				cl := proto
				cl.labels, cl.key, cl.bal = []string{w, b}, key(w, b), b
				cl.gen = func() workload.Generator { return gen(w, opt) }
				cells = append(cells, cl)
			}
		}
		return cells
	}}
}

func byWorkload(w, _ string) string { return w }
func byBalancer(_, b string) string { return b }
func byBoth(w, b string) string     { return w + "/" + b }

// --- columns shared by several experiments -----------------------------

func runKey(r *run) string { return r.key }

// label is the i-th label of a run's cell as a table column.
func label(header string, i int) column[*run] {
	return text(header, func(r *run) string { return r.labels[i] })
}

func meanIOPS(r *run) float64 { return r.Metrics().MeanThroughput() }
func peakIOPS(r *run) float64 { return r.Metrics().PeakThroughput(10) }
func meanIF(r *run) float64   { return r.Metrics().MeanIF() }
func migrated(r *run) float64 { return r.Metrics().MigratedTotal() }

func jct(q float64) func(*run) float64 {
	return func(r *run) float64 { return r.Metrics().JCTQuantile(q) }
}

// Metrics several experiments report under the same header and key.
var (
	colMeanIOPS = num("mean IOPS", ".mean", fi, meanIOPS)
	colPeakIOPS = num("peak IOPS", ".peak", fi, peakIOPS)
	colJCT50    = num("JCT p50", ".jct50", fi, jct(0.5))
	colJCT99    = shown("JCT p99", fi, jct(0.99))
	colJCTMax   = num("JCT max", ".jct_max", fi, jct(1.0))
	colReassign = num("reassign", ".reassign", fi, func(r *run) float64 { return r.Metrics().MeanTicksToReassign() })
	colStalled  = num("stalled", ".stalled", fi, func(r *run) float64 { return r.Metrics().StalledDownTotal() })
	colDone     = num("done", ".done", yesNo, done)
	colFinished = shown("done", yesNo, done)
)

// done is 1 when every client finished, else 0; yesNo prints it the way
// the tables always have.
func done(r *run) float64 {
	if r.Done() {
		return 1
	}
	return 0
}

func yesNo(v float64) string { return fmt.Sprint(v != 0) }

// aggWindow averages a run's aggregate IOPS over ticks [from, to).
func aggWindow(from, to int64) func(*run) float64 {
	return func(r *run) float64 {
		agg := &r.Metrics().Agg // sampled in tick order
		lo, _ := slices.BinarySearch(agg.Ticks, from)
		hi, _ := slices.BinarySearch(agg.Ticks, to)
		return stats.Mean(agg.Values[lo:hi])
	}
}
