package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/experiment"
	"repro/internal/replica"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// tickCase is one cell of the tick-loop benchmark matrix.
type tickCase struct {
	Name          string  `json:"name"`
	Workload      string  `json:"workload"`
	MDS           int     `json:"mds"`
	Clients       int     `json:"clients"`
	Workers       int     `json:"workers"`
	BatchSize     int     `json:"batch_size,omitempty"`
	Ticks         int64   `json:"ticks"`
	NsPerTick     float64 `json:"ns_per_tick"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
}

// tickReport is the checked-in machine-readable baseline format
// (BENCH_tickbench.json).
type tickReport struct {
	Go    string     `json:"go"`
	Ticks int64      `json:"ticks_per_case"`
	Cases []tickCase `json:"cases"`
}

// tickWorkload builds a long-running generator for a benchmark cell:
// the op budget must outlast warmup+measure ticks so the tick loop is
// measured at steady state, never on a drained cluster.
func tickWorkload(kind string) (workload.Generator, error) {
	switch kind {
	case "zipf", "elastic", "replication":
		// "elastic" is the zipf cell with an autoscaler attached: it
		// measures what the elastic observation path costs per tick.
		// "replication" attaches an R=2 warm-standby manager instead: it
		// prices the journal ship + reconcile pump at steady state.
		return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 500, OpsPerClient: 1 << 30}), nil
	case "shareddir":
		return workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 1 << 30}), nil
	case "readstorm":
		// Shared-directory read storm on a lease-enabled cluster: it
		// prices the lease routing path (holder spread, per-tick grant
		// refreshes, routing-table sync) at steady state.
		return workload.NewReadStorm(workload.ReadStormConfig{
			Files: 2000, OpsPerClient: 1 << 30,
		}), nil
	case "mdtest":
		// MDtest create-heavy: per-client directory trees with an
		// interleaved stat — the write-back batching target, also run
		// sync as the group-commit speedup baseline.
		return workload.NewMD(workload.MDConfig{
			CreatesPerClient: 1 << 30, DirsPerClient: 4, StatEvery: 64,
		}), nil
	case "tenant":
		// Skewed tenant mix under contended token buckets: prices the
		// serial bucket-admission phase, the per-tenant lane accounting,
		// and the per-tenant heat bookkeeping at steady state.
		return workload.NewTenants(workload.TenantsConfig{Tenants: 4, Skew: 1.0},
			func(t, clients, off int) workload.Generator {
				dir := fmt.Sprintf("/tenant%02d", t)
				switch t % 3 {
				case 0:
					return workload.NewZipf(workload.ZipfConfig{
						Dir: dir + "/zipf", ClientOffset: off,
						FilesPerClient: 500, OpsPerClient: 1 << 30,
					})
				case 1:
					return workload.NewMD(workload.MDConfig{
						Dir: dir + "/md", ClientOffset: off,
						CreatesPerClient: 1 << 30,
					})
				default:
					return workload.NewReadStorm(workload.ReadStormConfig{
						Dir: dir + "/storm", ClientOffset: off,
						WriteEvery: 50, OpsPerClient: 1 << 30,
					})
				}
			}), nil
	}
	return nil, fmt.Errorf("unknown tickbench workload %q", kind)
}

// runTickCase measures one cell: warmup ticks to reach steady state,
// then `ticks` measured steps timed with wall clock and alloc counters.
func runTickCase(kind string, mds, clients, workers, batch int, warmup, ticks int64) (tickCase, error) {
	gen, err := tickWorkload(kind)
	if err != nil {
		return tickCase{}, err
	}
	var batching *cluster.BatchingConfig
	if batch > 1 {
		batching = &cluster.BatchingConfig{BatchSize: batch, FlushEvery: 4}
	}
	var controller *elastic.Controller
	if kind == "elastic" {
		// Wide bounds so the steady-state workload neither grows nor
		// drains mid-measurement: the cell prices the per-epoch
		// observation, not a migration storm.
		policy := elastic.DefaultPolicy()
		policy.MinRanks, policy.MaxRanks = mds, 2*mds
		controller = elastic.MustController(policy)
	}
	var rep *replica.Manager
	if kind == "replication" {
		rep = replica.MustManager(replica.DefaultPolicy())
	}
	var tn *tenant.Manager
	if kind == "tenant" {
		// Contended flat buckets: the big tenants throttle every tick,
		// so the cell prices the admission path actually taken, not the
		// uncontended fast path.
		pol := tenant.DefaultPolicy()
		pol.Rate, pol.Burst = 1500, 3000
		tn = tenant.MustManager(pol)
	}
	if kind == "readstorm" {
		pol := replica.DefaultPolicy()
		pol.R = 3
		pol.LeaseTicks = 40
		pol.ReplicateReadFrac = 0.75
		rep = replica.MustManager(pol)
	}
	c, err := cluster.New(cluster.Config{
		MDS:         mds,
		Clients:     clients,
		ClientRate:  150,
		Seed:        42,
		Workers:     workers,
		Balancer:    experiment.MakeBalancer("Lunule"),
		Workload:    gen,
		Elastic:     controller,
		Replication: rep,
		Batching:    batching,
		Tenancy:     tn,
	})
	if err != nil {
		return tickCase{}, err
	}
	c.Run(warmup)
	opsBefore := c.Metrics().TotalOps()
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	c.Run(ticks)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	ops := c.Metrics().TotalOps() - opsBefore
	sec := elapsed.Seconds()
	name := fmt.Sprintf("%s/mds%d", kind, mds)
	if workers > 1 {
		name = fmt.Sprintf("%s/w%d", name, workers)
	}
	if batch > 1 {
		name = fmt.Sprintf("%s/b%d", name, batch)
	}
	tc := tickCase{
		Name:          name,
		Workload:      kind,
		MDS:           mds,
		Clients:       clients,
		Workers:       workers,
		BatchSize:     batch,
		Ticks:         ticks,
		NsPerTick:     float64(elapsed.Nanoseconds()) / float64(ticks),
		AllocsPerTick: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(ticks),
	}
	if sec > 0 {
		tc.OpsPerSec = ops / sec
	}
	return tc, nil
}

// runTickBench executes the serial matrix ({4,8,16} MDS x {zipf,
// shareddir, elastic, replication}, 64 clients), then the
// parallel-engine cells: every worker count in `workersAxis` over the
// >= 8-rank zipf/shareddir cells, and the 64/128-rank scale cells (256
// clients) where the worker pool has enough lanes to matter. It prints
// a table, optionally writes the JSON report, and diffs it against a
// checked-in baseline. ns/tick ratios are informational (wall clock
// moves with the host), but allocs/tick is a property of the code:
// when maxAllocRegress >= 0, any case whose allocs/tick exceeds the
// baseline by more than that fraction fails the run loudly.
func runTickBench(stdout io.Writer, ticks int64, workersAxis, batchAxis []int, outPath, baselinePath string, maxAllocRegress float64) error {
	if ticks <= 0 {
		ticks = 300
	}
	rep := tickReport{Go: runtime.Version(), Ticks: ticks}
	emit := func(kind string, mds, clients, workers, batch int) error {
		tc, err := runTickCase(kind, mds, clients, workers, batch, 100, ticks)
		if err != nil {
			return err
		}
		rep.Cases = append(rep.Cases, tc)
		fmt.Fprintf(stdout, "%-20s %10.0f ns/tick %12.0f ops/sec %8.0f allocs/tick\n",
			tc.Name, tc.NsPerTick, tc.OpsPerSec, tc.AllocsPerTick)
		return nil
	}
	for _, kind := range []string{"zipf", "shareddir", "mdtest", "readstorm", "elastic", "replication", "tenant"} {
		for _, mds := range []int{4, 8, 16} {
			if err := emit(kind, mds, 64, 1, 0); err != nil {
				return err
			}
		}
	}
	for _, w := range workersAxis {
		if w <= 1 {
			continue // the serial matrix above already covers workers=1
		}
		for _, kind := range []string{"zipf", "shareddir"} {
			for _, mds := range []int{8, 16} {
				if err := emit(kind, mds, 64, w, 0); err != nil {
					return err
				}
			}
		}
	}
	// Write-back cells: the batch-size axis over the zipf and mdtest
	// workloads, against the sync cells above as the speedup baseline.
	// mds4 is server-bound at 64 clients (9600 demand vs 8000 budget):
	// the cell where group-commit admission shows up as ops/sec.
	for _, b := range batchAxis {
		if b <= 1 {
			continue // the serial matrix above is the sync baseline
		}
		for _, kind := range []string{"zipf", "mdtest"} {
			for _, mds := range []int{4, 8} {
				if err := emit(kind, mds, 64, 1, b); err != nil {
					return err
				}
			}
		}
	}
	// Scale cells: wide clusters where rank lanes dominate the tick, at
	// every axis point (including 1, the serial reference).
	for _, mds := range []int{64, 128} {
		for _, w := range workersAxis {
			if err := emit("zipf", mds, 256, w, 0); err != nil {
				return err
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tick benchmark written to %s\n", outPath)
	}
	if baselinePath != "" {
		if err := diffTickBaseline(stdout, rep, baselinePath, maxAllocRegress); err != nil {
			return err
		}
	}
	return nil
}

// diffTickBaseline prints current/baseline ratios per case and, when
// maxAllocRegress >= 0, fails if any case's allocs/tick regressed past
// the threshold (ns/tick stays informational — it moves with the host).
func diffTickBaseline(stdout io.Writer, rep tickReport, path string, maxAllocRegress float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base tickReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	byName := make(map[string]tickCase, len(base.Cases))
	for _, tc := range base.Cases {
		byName[tc.Name] = tc
	}
	fmt.Fprintf(stdout, "\nvs baseline %s (ratio, 1.00 = unchanged; ns informational, allocs gated):\n", path)
	var regressed []string
	for _, tc := range rep.Cases {
		b, ok := byName[tc.Name]
		if !ok || b.NsPerTick == 0 {
			fmt.Fprintf(stdout, "%-16s (no baseline)\n", tc.Name)
			continue
		}
		allocRatio := safeRatio(tc.AllocsPerTick, b.AllocsPerTick)
		verdict := ""
		if maxAllocRegress >= 0 && b.AllocsPerTick > 0 && allocRatio > 1+maxAllocRegress {
			verdict = "  ALLOC REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s %.2fx", tc.Name, allocRatio))
		}
		fmt.Fprintf(stdout, "%-16s %5.2fx ns/tick %5.2fx allocs/tick%s\n",
			tc.Name, tc.NsPerTick/b.NsPerTick, allocRatio, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("allocs/tick regressed more than %.0f%% vs %s: %s",
			maxAllocRegress*100, path, strings.Join(regressed, ", "))
	}
	return nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
