//go:build !race

// Steady-state allocation contract of the tick loop. Allocation counts
// are meaningless under the race detector (the runtime inserts its
// own), so this file is excluded from `make race` / `make check`; the
// plain `go test ./...` of tier-1 and the CI "Alloc" step run it.

package cluster

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/workload"
)

// steadyOps is an op budget no cell can drain in 200 ticks, so every
// measured tick runs at steady state, never on a finished cluster.
const steadyOps = 1 << 30

// TestSteadyTickAllocs holds allocations per steady-state Step under a
// ceiling for each way the tick loop can be configured: 100 warm-up
// ticks, then 100 measured, at 4 ranks / 64 clients. Each
// ceiling is ceil(1.25 x the value measured when the cell was added or
// last re-measured, noted beside it), so the test fails when a per-op allocation slips
// back into plan, admit, serve or the barrier (one per op is thousands
// per tick), not on a per-epoch map growth.
func TestSteadyTickAllocs(t *testing.T) {
	zipf := func() workload.Generator {
		return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 500, OpsPerClient: steadyOps})
	}
	mdtest := func() workload.Generator {
		return workload.NewMD(workload.MDConfig{CreatesPerClient: steadyOps, DirsPerClient: 4, StatEvery: 64})
	}
	contended := func() Config { return contendedTenants(steadyOps) }
	for _, tc := range []struct {
		name    string
		ceiling float64 // ceil(1.25 x measured)
		cfg     func() Config
	}{
		{"zipf", 11 /* 8.8 */, func() Config { return Config{Workload: zipf()} }},
		{"shareddir", 151 /* 120.7 */, func() Config {
			return Config{Workload: workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: steadyOps})}
		}},
		{"mdtest", 155 /* 124.0 */, func() Config { return Config{Workload: mdtest()} }},
		{"mdtest-b32", 294 /* 234.7 */, func() Config {
			return Config{Workload: mdtest(), Batching: &BatchingConfig{BatchSize: 32, FlushEvery: 4}}
		}},
		{"zipf-elastic-idle", 15 /* 11.9 */, func() Config {
			// Wide bounds: the cell prices the per-epoch observation, not
			// a scale-up or a drain.
			pol := elastic.DefaultPolicy()
			pol.MinRanks, pol.MaxRanks = 4, 8
			return Config{Workload: zipf(), Elastic: elastic.MustController(pol)}
		}},
		{"zipf-r2", 11 /* 8.8 */, func() Config {
			return Config{Workload: zipf(), Replication: replica.MustManager(replica.DefaultPolicy())}
		}},
		{"readstorm-r3-leases", 12 /* 9.3 */, func() Config {
			return Config{
				Workload:    workload.NewReadStorm(workload.ReadStormConfig{Files: 2000, OpsPerClient: steadyOps}),
				Replication: leaseManager(3, 40, 0.75),
			}
		}},
		{"mixed-saturated", 4 /* 2.9 */, func() Config {
			// The paper's 4.4 mix offering 64 x 150 ops a tick to ranks that
			// serve 4 x 1200: every client is cut every tick and its cut
			// suffix is planned again the next. Sized so that no client
			// finishes. Before the scan generators appended into their
			// stream's buffer this cell measured 1086.4: a fresh slice per
			// file drawn, regrown as the file's ops were appended.
			return Config{Capacity: 1200, Workload: workload.NewMixed(
				workload.NewCNN(workload.CNNConfig{Dirs: 40, FilesPerDir: 200}),
				workload.NewNLP(workload.NLPConfig{Dirs: 4, FilesPerDir: 600}),
				workload.NewWeb(workload.WebConfig{RequestsPerClient: 25000}),
				zipf())}
		}},
		{"tenants-contended", 109 /* 87.2 */, contended},
		{"tenants-contended-b32-events", 163 /* 129.9 */, func() Config {
			// The traced write-back path, nearly all batch_flush /
			// batch_commit events. The same cell without a Bus measures
			// 125.1: encoding allocates nothing, and only field values that
			// are not small integers (an int >= 256, any int64 or float64)
			// box into their obs.F slots. Before the draw was bounded by
			// the client's window it measured 735.6 (448.4 without a Bus):
			// the journals stood deep enough to box every depth field. With
			// reflection encoding it was 11564.6.
			cfg := contended()
			cfg.Batching = &BatchingConfig{BatchSize: 32, FlushEvery: 4}
			cfg.Bus = obs.NewBus(obs.NewJSONL(io.Discard))
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.MDS, cfg.Clients, cfg.Seed = 4, 64, 42
			cfg.Balancer = core.NewDefault()
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Run(100)
			const ticks = 100
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			c.Run(ticks)
			runtime.ReadMemStats(&after)
			if c.Done() {
				t.Fatal("cluster drained: the cell did not measure steady state")
			}
			got := float64(after.Mallocs-before.Mallocs) / ticks
			t.Logf("%.1f allocs/tick (ceiling %.0f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%.1f allocs per steady-state tick, ceiling %.0f", got, tc.ceiling)
			}
		})
	}
}
