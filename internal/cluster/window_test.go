package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// checkWindows is the oracle of the carried plan (engine.go, window):
// after a Step, no sync client's window reaches past its queue, and
// every entry the next plan would reuse — all of them, under a window
// whose version still stands — equals a fresh resolution of the op
// queued at that position through the Partition itself (for a create:
// the entry and hash of its name, no target). It returns how many such
// entries resolve a create.
func checkWindows(t *testing.T, c *Cluster) (creates int) {
	t.Helper()
	e := c.engine
	for ci, cl := range c.clients {
		w := &e.win[ci]
		n := len(w.routes) - int(w.head)
		if int64(n) > cl.PendingOps() {
			t.Fatalf("tick %d client %d: window holds %d entries, queue %d ops", c.tick, ci, n, cl.PendingOps())
		}
		if w.ver != c.part.Version() {
			continue // stale: the next plan drops it whole
		}
		for k := 0; k < n; k++ {
			r, op := w.routes[int(w.head)+k], cl.OpAt(k)
			want := routed{write: op.Kind.IsWrite(), ends: e.endsRun(cl, op)}
			if op.Kind == workload.OpCreate {
				want.hash = namespace.HashName(op.Name)
				want.ent = c.part.GoverningChildEntry(op.Parent, want.hash)
			} else {
				want.target, want.ent = op.Target, c.part.GoverningEntry(op.Target)
			}
			if r != want {
				t.Fatalf("tick %d client %d op %d (%v): carried %+v, fresh %+v", c.tick, ci, k, op.Kind, r, want)
			}
			if op.Kind == workload.OpCreate {
				if r.target != nil {
					t.Fatalf("tick %d client %d op %d: create carried with a target", c.tick, ci, k)
				}
				creates++
			}
		}
	}
	return creates
}

// carriedStats is what a carriedRun saw of the mechanism: stall notes;
// entries that stood in a window whose version the next tick's plan
// still found (reused, not resolved), creates and run-ending ops among
// the standing entries; and the scenario's own activity.
type carriedStats struct {
	stalls                    int64
	carried, creates          int
	versions, ends, ticksRun  int
	migrated, entries, leases int64
}

// carriedRun steps one scenario to completion under checkWindows and
// returns the run's complete output (CSV, epoch CSV, JSONL trace).
func carriedRun(t *testing.T, disable bool, scenario func(*Config) func(*Cluster)) ([]byte, carriedStats) {
	t.Helper()
	var tr bytes.Buffer
	sink := obs.NewJSONL(&tr)
	cfg := Config{Bus: obs.NewBus(sink), DisableResolveCache: disable}
	after := scenario(&cfg)
	c := newTestCluster(t, cfg)
	if after != nil {
		after(c)
	}
	var st carriedStats
	e := c.engine
	left := make([]int, len(c.clients))
	vers := make([]uint64, len(c.clients))
	for c.tick < 3000 && !c.Done() {
		for ci := range c.clients {
			w := &e.win[ci]
			left[ci], vers[ci] = len(w.routes)-int(w.head), w.ver
		}
		ver := c.part.Version()
		c.Step()
		if c.part.Version() != ver {
			st.versions++
		}
		for ci := range c.clients {
			w := &e.win[ci]
			// The plan ran for this client and kept its window: what
			// stood in it was walked, not resolved.
			if !disable && e.participated[ci] && w.ver == vers[ci] {
				st.carried += left[ci]
			}
			for _, r := range w.routes[w.head:] {
				if r.ends {
					st.ends++
				}
			}
		}
		st.creates += checkWindows(t, c)
	}
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	st.ticksRun = int(c.tick)
	for _, s := range c.servers {
		st.stalls += s.Stalls()
	}
	st.migrated = int64(c.Metrics().MigratedTotal())
	st.entries = int64(c.part.NumEntries())
	st.leases = c.LeaseServes()
	var out bytes.Buffer
	if err := c.Metrics().WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	if err := c.Metrics().WriteEpochCSV(&out); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out.Write(tr.Bytes())
	return out.Bytes(), st
}

// createTrace is a trace-file workload (a tree-reading stream: every
// create ends its run) of 8 clients, each stat-ing a private file
// between creates of fresh names and of names a later getattr makes
// Setup pre-create — creates of an existing name.
func createTrace() workload.Generator {
	var b strings.Builder
	for i := 0; i < 150; i++ {
		for c := 0; c < 8; c++ {
			fmt.Fprintf(&b, "%d getattr /tr/c%d/base 0\n%d getattr /tr/c%d/base 0\n", c, c, c, c)
			fmt.Fprintf(&b, "%d create /tr/c%d/new%04d 0\n", c, c, i)
			fmt.Fprintf(&b, "%d open /tr/c%d/base 64\n", c, c)
			if i%3 == 0 {
				fmt.Fprintf(&b, "%d create /tr/c%d/old%04d 0\n%d getattr /tr/c%d/old%04d 0\n", c, c, i, c, c, i)
			}
		}
	}
	tf, err := workload.ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		panic(err)
	}
	return tf
}

// carriedScenarios are saturated — rank capacity far below what the
// clients offer, so most clients are cut every tick and their cut suffix
// is carried — and between them cover everything that invalidates,
// splits or ends a carried plan. digest is the SHA-256 of the run's
// output recorded at 42249c9, the parent of the commit that began
// carrying plans (none of the engineScenarios is saturated); check, when
// set, asserts the scenario did what it is listed for.
var carriedScenarios = []struct {
	name     string
	digest   string
	scenario func(*Config) func(*Cluster)
	check    func(*testing.T, carriedStats)
}{
	{"migrations+splits", "186c43f75a44952149b1f8972160a2c9d76a3e59cefeee3340c2973112897cf2", func(cfg *Config) func(*Cluster) {
		// A shared-directory create storm (dirfrag splits) beside
		// private Zipf readers (whole-directory migrations).
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 4, 16, 11, 250
		cfg.Workload = workload.NewMixed(
			workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 2500}),
			workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 6000}))
		return nil
	}, func(t *testing.T, st carriedStats) {
		if st.migrated == 0 || st.entries < 4 || st.versions < 3 {
			t.Errorf("no rebalancing to invalidate windows: %+v", st)
		}
	}},
	{"crashes", "6d23438b950d3c6d457c2665b4b74b938f263a71f84ddcc53f5487bedfa4ce37", func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(20, 0).Recover(70, 0).Crash(100, 2).Recover(150, 2)
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 4, 16, 11, 250
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 12000})
		return nil
	}, func(t *testing.T, st carriedStats) {
		if st.ticksRun < 160 || st.versions < 2 {
			t.Errorf("run did not span both crashes and takeovers: %+v", st)
		}
	}},
	{"leases-write-revoke", "1a283db630cf7a802a46ea16d8b1951642ea3d6f3d22c9d8d73395059e17c1ce", func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 5, 16, 11, 150
		cfg.Workload = workload.NewReadStorm(workload.ReadStormConfig{Files: 300, OpsPerClient: 5000, WriteEvery: 40})
		pol := replica.DefaultPolicy()
		pol.R, pol.LeaseTicks, pol.ReplicateReadFrac = 3, 30, 0.6
		cfg.Replication = replica.MustManager(pol)
		return nil
	}, func(t *testing.T, st carriedStats) {
		if st.leases == 0 {
			t.Errorf("no op served by a lease holder: %+v", st)
		}
	}},
	{"tenants-contended", "4096d2c3151016b5778a8d67769332194081f5230de95a7ba1a65ce7124ca986", func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 4, 16, 11, 400
		cfg.Workload = workload.NewTenants(workload.TenantsConfig{Tenants: 4, Skew: 1},
			func(tn, clients, off int) workload.Generator {
				dir := fmt.Sprintf("/t%d", tn)
				if tn%2 == 0 {
					return workload.NewZipf(workload.ZipfConfig{Dir: dir, ClientOffset: off, FilesPerClient: 100, OpsPerClient: 5000})
				}
				return workload.NewMD(workload.MDConfig{Dir: dir, ClientOffset: off, CreatesPerClient: 5000, StatEvery: 4})
			})
		pol := tenant.DefaultPolicy()
		pol.Rate, pol.Burst = 300, 600
		cfg.Tenancy = tenant.MustManager(pol)
		return nil
	}, carriesCreates},
	{"datapath", "a56875b768b47fc9f91578b0516a1870b8fb94040b97ad0edbfd94602480957f", func(cfg *Config) func(*Cluster) {
		// Every open moves data and ends its run.
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 3, 12, 11, 8
		cfg.DataPath = true
		cfg.Workload = workload.NewCNN(workload.CNNConfig{Dirs: 6, FilesPerDir: 20})
		return nil
	}, func(t *testing.T, st carriedStats) {
		if st.ends == 0 {
			t.Errorf("no carried entry ends its run: %+v", st)
		}
	}},
	{"tracefile-creates", "7bff86e57ccceaad8f013ec8445e4d33ea8953466f69613c06d1d5eb58699861", func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 2, 8, 11, 12
		cfg.Workload = createTrace()
		return nil
	}, func(t *testing.T, st carriedStats) {
		if st.ends == 0 || st.creates == 0 {
			t.Errorf("no carried create ends its run: %+v", st)
		}
	}},
	{"dup-creates", "d9563f34f5d1a091885dc2ce5be0a7b84d1b0bf342ad2e0eb6f784d139024a9a", func(cfg *Config) func(*Cluster) {
		after := dupCreateScenario(nil)(cfg)
		cfg.Capacity = 40
		return after
	}, carriesCreates},
}

// carriesCreates asserts that creates stood in carried windows: of
// names that exist and of names that do not alike, since where a create
// is routed does not depend on it.
func carriesCreates(t *testing.T, st carriedStats) {
	if st.creates == 0 {
		t.Errorf("no create was carried: %+v", st)
	}
}

// TestCarriedPlanMatchesFresh is the contract of the carried plan: every
// scenario runs under the window oracle every tick, and its whole output
// must be byte-equal to the same run with the resolve cache disabled —
// which carries nothing and resolves every op of every phase afresh.
func TestCarriedPlanMatchesFresh(t *testing.T) {
	for _, sc := range carriedScenarios {
		t.Run(sc.name, func(t *testing.T) {
			fresh, _ := carriedRun(t, true, sc.scenario)
			if got := fmt.Sprintf("%x", sha256.Sum256(fresh)); got != sc.digest {
				t.Errorf("output digest %s, recorded %s: model output changed", got, sc.digest)
			}
			got, st := carriedRun(t, false, sc.scenario)
			t.Logf("%+v", st)
			if st.stalls == 0 || st.carried == 0 {
				t.Errorf("not saturated, nothing carried: %+v", st)
			}
			if sc.check != nil {
				sc.check(t, st)
			}
			diffEngineOutputs(t, sc.name+" carried vs resolve cache disabled", fresh, got)
		})
	}
}

// TestCarriedCreateRoutedOnce: a create admission refused is planned
// next tick from its window slot, not resolved again — so over a run
// with a standing partition version, route is called once per op drawn.
// Every carried create's slot is marked with a hash no resolution
// produces; one plan later the marks must all stand, beside freshly
// drawn ops that were routed.
func TestCarriedCreateRoutedOnce(t *testing.T) {
	c := newTestCluster(t, Config{MDS: 1, Clients: 8, Capacity: 400, Seed: 42,
		Workload: workload.NewMD(workload.MDConfig{CreatesPerClient: 20000})})
	c.Run(20) // saturated: each client is cut every tick
	e := c.engine
	co := e.cohorts[0]
	standing := make([]int, len(c.clients))
	marked := 0
	for ci := range c.clients {
		w := &e.win[ci]
		if w.ver != c.part.Version() {
			t.Fatalf("client %d: the partition version moved; nothing is carried", ci)
		}
		standing[ci] = len(w.routes) - int(w.head)
		for k := range w.routes[w.head:] {
			if r := &w.routes[int(w.head)+k]; r.target == nil {
				r.hash ^= 1
				marked++
			}
		}
		e.credit[ci] = 150
	}
	co.active = append(co.active[:0], co.members...)
	co.plan(e, c.tick)
	planned := 0
	for _, u := range co.runs {
		planned += int(u.n)
	}
	for ci, cl := range c.clients {
		for k, r := range e.win[ci].routes {
			op := cl.OpAt(k)
			if op.Kind != workload.OpCreate {
				continue
			}
			carried, resolved := k < standing[ci], r.hash == namespace.HashName(op.Name)
			if carried == resolved {
				t.Fatalf("client %d op %d: carried %v, resolved by this plan %v", ci, k, carried, resolved)
			}
		}
	}
	if marked == 0 || planned <= marked {
		t.Fatalf("%d carried creates, %d ops planned: want some carried and some drawn", marked, planned)
	}
}
