package cluster

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/replica"
)

// axis is one byte-identity contract: attaching it to a seeded run
// must leave the run's output (its CSV part, when csvOnly) byte-equal
// to the row's run without it.
type axis struct {
	name string
	// entry is the test that runs the axis on every row that does not
	// name another in scenario.entries.
	entry string
	apply func(*Config)
	// build mutates the built cluster before it runs.
	build   func(*Cluster)
	csvOnly bool
	// skip says why the axis does not apply to a row's config ("" when
	// it does).
	skip func(*Config) string
	// check asserts what the axis run itself must show.
	check func(*testing.T, scenario, *run)
}

var axes = []axis{
	// A seeded run is a function of its config.
	{name: "rerun", entry: "TestDeterminism"},
	// The auditor is read-only, and every row keeps every invariant on
	// every tick.
	{name: "audit", entry: "TestAuditDifferential",
		apply: func(cfg *Config) { cfg.Audit = audit.New(audit.Options{EveryTick: true}) },
		check: func(t *testing.T, _ scenario, r *run) {
			if r.cfg.Audit.Passes() == 0 {
				t.Error("auditor never ran")
			}
			for _, v := range r.cfg.Audit.Violations() {
				t.Errorf("audit violation: %s", v)
			}
		}},
	// Tracing observes; it never touches the RNG or tick ordering.
	{name: "untraced", entry: "TestTracingDoesNotPerturbSimulation", csvOnly: true,
		apply: func(cfg *Config) { cfg.Bus = nil }},
	// The version-cached resolver and the carried plan are pure memos.
	{name: "resolve-cache-off", entry: "TestResolveCacheDifferential",
		build: func(c *Cluster) { c.resolver = nil },
		check: func(t *testing.T, sc scenario, r *run) {
			if r.c.resolver != nil {
				t.Error("the run kept its resolver")
			}
			if strings.HasPrefix(sc.name, "saturated/") && r.st.carried != 0 {
				t.Errorf("%d entries carried without a resolver", r.st.carried)
			}
		}},
	// Write-back at {1,1} is defined to run the synchronous path verbatim.
	{name: "batching-1-1", entry: "TestWriteBackDegenerateMatchesSync",
		apply: func(cfg *Config) { cfg.Batching = &BatchingConfig{BatchSize: 1, FlushEvery: 1} },
		skip: func(cfg *Config) string {
			if cfg.Batching != nil {
				return "the row runs write-back already"
			}
			return ""
		}},
	// Admission whose buckets never run dry perturbs nothing.
	{name: "tenancy-idle", entry: "TestTenantIdleByteIdentical",
		apply: func(cfg *Config) { cfg.Tenancy = tenantManager(1e9, 1e9) },
		skip: func(cfg *Config) string {
			if cfg.Tenancy != nil {
				return "the row's own buckets are contended"
			}
			return ""
		},
		check: func(t *testing.T, _ scenario, r *run) {
			tn := r.c.Tenancy()
			for i := 0; i < tn.N(); i++ {
				if tn.Throttled(i) != 0 {
					t.Errorf("uncontended bucket throttled tenant %d (%d ops)", i, tn.Throttled(i))
				}
			}
		}},
	// Lease machinery that no subtree qualifies for perturbs nothing.
	{name: "leases-idle", entry: "TestLeaseIdleByteIdentical",
		apply: func(cfg *Config) {
			pol := cfg.Replication.Policy()
			pol.LeaseTicks, pol.ReplicateReadFrac = 30, 0.9
			cfg.Replication = replica.MustManager(pol)
		},
		skip: func(cfg *Config) string {
			switch {
			case cfg.Replication == nil:
				return "not replicated: a lease is held by a synced standby"
			case cfg.Replication.Policy().LeaseTicks > 0:
				return "the row's leases are live"
			}
			return ""
		},
		check: func(t *testing.T, _ scenario, r *run) {
			if n := r.c.Replicas().LeasesGranted(); n != 0 {
				t.Errorf("idle lease policy granted %d leases", n)
			}
		}},
	// Config.Workers is ignored: a run is one goroutine.
	{name: "workers", entry: "TestWorkersIgnored",
		apply: func(cfg *Config) { cfg.Workers = 4 }},
}

func axisNamed(name string) (axis, bool) {
	for _, ax := range axes {
		if ax.name == name {
			return ax, true
		}
	}
	return axis{}, false
}

// entry is the test that runs ax on sc.
func (sc scenario) entry(ax axis) string {
	if e, ok := sc.entries[ax.name]; ok {
		return e
	}
	return ax.entry
}

// skipReason says why ax does not apply to sc ("" when it does).
func (sc scenario) skipReason(ax axis) string {
	if why := sc.skip[ax.name]; why != "" {
		return why
	}
	if ax.skip == nil {
		return ""
	}
	var cfg Config
	sc.config(&cfg)
	return ax.skip(&cfg)
}

// runAxis runs the named axis on every row this test is the entry of:
// the axis run must reproduce the row's plain run byte for byte.
func runAxis(t *testing.T, name string) {
	ax, ok := axisNamed(name)
	if !ok {
		t.Fatalf("no axis %q", name)
	}
	if raceBuild {
		t.Skip("a cluster run is one goroutine: a race build runs only the pins")
	}
	for _, sc := range scenarios {
		if sc.entry(ax) != t.Name() {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			if why := sc.skipReason(ax); why != "" {
				t.Skip(why)
			}
			r := runScenario(t, sc, &ax)
			if ax.check != nil {
				ax.check(t, sc, r)
			}
			part := 0
			if ax.csvOnly {
				part = 1
			}
			if digest(r.output(ax.csvOnly)) == pinnedRun(t, sc)[part] {
				return
			}
			plain := runScenario(t, sc, nil)
			diffEngineOutputs(t, name+" vs plain run", plain.output(ax.csvOnly), r.output(ax.csvOnly))
			t.Fatal("the plain run's output changed between two runs")
		})
	}
}

// TestIdentityTable holds the table to its reach: at least 140 (row,
// axis) pairs are checked, and every row's per-axis entries and skips
// name real axes.
func TestIdentityTable(t *testing.T) {
	checked := 0
	for _, sc := range scenarios {
		for name := range sc.entries {
			if _, ok := axisNamed(name); !ok {
				t.Errorf("%s: entry for unknown axis %q", sc.name, name)
			}
		}
		for name := range sc.skip {
			if _, ok := axisNamed(name); !ok {
				t.Errorf("%s: skip for unknown axis %q", sc.name, name)
			}
		}
		for _, ax := range axes {
			if sc.skipReason(ax) == "" {
				checked++
			}
		}
	}
	t.Logf("%d (row, axis) pairs checked of %d", checked, len(scenarios)*len(axes))
	if checked < 140 {
		t.Errorf("%d (row, axis) pairs checked, want at least 140", checked)
	}
}

func TestDeterminism(t *testing.T)                          { runAxis(t, "rerun") }
func TestElasticDeterministic(t *testing.T)                 { runAxis(t, "rerun") }
func TestReplicationDeterministic(t *testing.T)             { runAxis(t, "rerun") }
func TestFailoverScheduledFaultsDeterministic(t *testing.T) { runAxis(t, "rerun") }
func TestAuditDifferential(t *testing.T)                    { runAxis(t, "audit") }
func TestElasticScaleCycleAudited(t *testing.T)             { runAxis(t, "audit") }
func TestReplicationFaultChurnAudited(t *testing.T)         { runAxis(t, "audit") }
func TestTracingDoesNotPerturbSimulation(t *testing.T)      { runAxis(t, "untraced") }
func TestResolveCacheDifferential(t *testing.T)             { runAxis(t, "resolve-cache-off") }
func TestResolveCacheDifferentialSharedDir(t *testing.T)    { runAxis(t, "resolve-cache-off") }
func TestWriteBackDegenerateMatchesSync(t *testing.T)       { runAxis(t, "batching-1-1") }
func TestTenantIdleByteIdentical(t *testing.T)              { runAxis(t, "tenancy-idle") }
func TestLeaseIdleByteIdentical(t *testing.T)               { runAxis(t, "leases-idle") }
func TestWorkersIgnored(t *testing.T)                       { runAxis(t, "workers") }
