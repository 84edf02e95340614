package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/namespace"
	"repro/internal/replica"
	"repro/internal/workload"
)

// smallZipf is a quick workload for integration tests.
func smallZipf() workload.Generator {
	return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 4000})
}

func smallCNN() workload.Generator {
	return workload.NewCNN(workload.CNNConfig{Dirs: 40, FilesPerDir: 10})
}

func smallMD() workload.Generator {
	return workload.NewMD(workload.MDConfig{CreatesPerClient: 1500})
}

func newTestCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	if cfg.Balancer == nil {
		cfg.Balancer = core.NewDefault()
	}
	if cfg.Workload == nil {
		cfg.Workload = smallZipf()
	}
	if cfg.Clients == 0 {
		cfg.Clients = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*Config) // breaks one thing in an otherwise valid config
		want string        // substring of the error
	}{
		{"nil balancer", func(c *Config) { c.Balancer = nil }, "balancer"},
		{"nil workload", func(c *Config) { c.Workload = nil }, "workload"},
		{"zero batching", func(c *Config) { c.Batching = &BatchingConfig{} }, "batching"},
		{"negative MDS", func(c *Config) { c.MDS = -1 }, "MDS"},
		{"negative capacity", func(c *Config) { c.Capacity = -5 }, "capacity"},
		{"negative epoch", func(c *Config) { c.EpochTicks = -1 }, "epoch"},
		{"negative clients", func(c *Config) { c.Clients = -3 }, "clients"},
		{"negative rate", func(c *Config) { c.ClientRate = -1 }, "rate"},
		{"infinite rate", func(c *Config) { c.ClientRate = math.Inf(1) }, "rate"},
		{"NaN rate", func(c *Config) { c.ClientRate = math.NaN() }, "rate"},
		{"negative data bandwidth", func(c *Config) { c.DataBandwidth = -1 }, "data bandwidth"},
		{"promotion after takeover", func(c *Config) {
			c.RecoveryTicks = 2
			c.Replication = replica.MustManager(replica.DefaultPolicy())
		}, "PromoteTicks"},
	} {
		cfg := Config{Balancer: core.NewDefault(), Workload: smallZipf()}
		tc.bad(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestInterfaceBudgets holds ROADMAP's interface budgets: a new knob or
// view method needs a deliberate edit here.
func TestInterfaceBudgets(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n > 18 {
		t.Errorf("cluster.Config has %d fields, budget 18", n)
	}
	if n := reflect.TypeOf(core.Config{}).NumField(); n != 4 {
		t.Errorf("core.Config has %d fields, budget exactly 4", n)
	}
	if n := reflect.TypeOf((*balancer.View)(nil)).Elem().NumMethod(); n > 11 {
		t.Errorf("balancer.View has %d methods, budget 11", n)
	}
}

// TestDataPathBudget: payDebt grants at most the tick's remaining
// bytes, nothing once they are spent, and Step refills them.
func TestDataPathBudget(t *testing.T) {
	// MDtest moves no data, so Step spends none of the budget itself.
	c := newTestCluster(t, Config{DataBandwidth: 200, Workload: smallMD()})
	c.Step()
	if c.dataLeft != 200 {
		t.Fatalf("budget after Step = %d, want 200", c.dataLeft)
	}
	cl := c.clients[0]
	cl.AddDebt(150)
	if c.payDebt(cl); cl.Debt() != 0 || c.dataLeft != 50 {
		t.Fatalf("paying 150: debt %d, budget %d; want 0, 50", cl.Debt(), c.dataLeft)
	}
	cl.AddDebt(100)
	if c.payDebt(cl); cl.Debt() != 50 || c.dataLeft != 0 {
		t.Fatalf("paying 100 from 50: debt %d, budget %d; want 50, 0", cl.Debt(), c.dataLeft)
	}
	if c.payDebt(cl); cl.Debt() != 50 || c.dataLeft != 0 {
		t.Fatalf("a spent budget granted bytes: debt %d, budget %d", cl.Debt(), c.dataLeft)
	}
	cl.PayDebt(cl.Debt())
	c.Step()
	if c.dataLeft != 200 {
		t.Fatalf("budget after the next Step = %d, want 200", c.dataLeft)
	}
}

// TestDataPathDegenerate: without a data path the budget stays empty
// and pays nothing, and a client without debt draws nothing from it.
func TestDataPathDegenerate(t *testing.T) {
	off := newTestCluster(t, Config{Workload: smallMD()})
	off.Step()
	cl := off.clients[0]
	cl.AddDebt(10)
	if off.payDebt(cl); cl.Debt() != 10 || off.dataLeft != 0 {
		t.Fatalf("no data path: debt %d, budget %d; want 10, 0", cl.Debt(), off.dataLeft)
	}

	on := newTestCluster(t, Config{DataBandwidth: 200, Workload: smallMD()})
	on.Step()
	if on.payDebt(on.clients[0]); on.dataLeft != 200 {
		t.Fatalf("a client without debt drew from the budget: %d left, want 200", on.dataLeft)
	}
}

func TestRunCompletesAllClients(t *testing.T) {
	c := newTestCluster(t, Config{})
	end := c.RunUntilDone(5000)
	if !c.Done() {
		t.Fatalf("clients unfinished after %d ticks", end)
	}
	if len(c.Metrics().JCT) != len(c.Clients()) {
		t.Fatalf("JCT count %d != clients %d", len(c.Metrics().JCT), len(c.Clients()))
	}
	// Every issued op was eventually served: total served == sum of
	// per-client completed ops.
	var clientOps int64
	for _, cl := range c.Clients() {
		if !cl.Done() {
			t.Fatal("client not done")
		}
		clientOps += cl.OpsDone()
	}
	var served int64
	for _, s := range c.Servers() {
		served += s.OpsTotal()
	}
	if clientOps != served {
		t.Fatalf("client ops %d != served ops %d", clientOps, served)
	}
}

// TestSeedsDiffer: the seed drives the dynamics, not the workload, so
// two seeds serve the same op total through different runs.
func TestSeedsDiffer(t *testing.T) {
	seeded := func(seed uint64) *run {
		return runScenario(t, scenario{config: func(cfg *Config) func(*Cluster) {
			cfg.Seed = seed
			return nil
		}}, nil)
	}
	a, b := seeded(1), seeded(2)
	if a.c.Metrics().TotalOps() != b.c.Metrics().TotalOps() {
		t.Fatal("total ops must match across seeds (same workload volume)")
	}
	if digest(a.output(false)) == digest(b.output(false)) {
		t.Fatal("seeds 1 and 2 produced byte-identical runs")
	}
}

func TestInodeConservationAcrossMigrations(t *testing.T) {
	c := newTestCluster(t, Config{Workload: smallCNN(), Clients: 8})
	for i := 0; i < 1500 && !c.Done(); i++ {
		c.Step()
		if i%100 == 0 {
			total := 0
			for _, sz := range c.Partition().SubtreeSizes() {
				if sz < 0 {
					t.Fatalf("negative governed size at tick %d", i)
				}
				total += sz
			}
			if total != c.Tree().NumInodes() {
				t.Fatalf("tick %d: governed %d != tree %d", i, total, c.Tree().NumInodes())
			}
		}
	}
}

func TestLunuleBeatsNothingBalancer(t *testing.T) {
	// A do-nothing balancer leaves everything on MDS 0; Lunule must
	// complete the same workload sooner. The demand (20 clients x 150
	// ops/s) exceeds one MDS's capacity, so balancing matters.
	cfgBase := Config{
		Workload: workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 15000}),
		Clients:  20,
		Seed:     5,
	}

	cfgNull := cfgBase
	cfgNull.Balancer = nullBalancer{}
	cNull := newTestCluster(t, cfgNull)
	cNull.RunUntilDone(20000)

	cfgLun := cfgBase
	cfgLun.Balancer = core.NewDefault()
	cLun := newTestCluster(t, cfgLun)
	cLun.RunUntilDone(20000)

	if !cNull.Done() || !cLun.Done() {
		t.Fatal("runs did not finish")
	}
	if cLun.Tick() >= cNull.Tick() {
		t.Fatalf("Lunule (%d ticks) not faster than no balancing (%d ticks)", cLun.Tick(), cNull.Tick())
	}
}

type nullBalancer struct{}

func (nullBalancer) Name() string              { return "null" }
func (nullBalancer) Rebalance(v balancer.View) {}

func TestMDSExpansionAbsorbsLoad(t *testing.T) {
	c := newTestCluster(t, Config{
		MDS:      2,
		Clients:  16,
		Workload: workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 20000}),
	})
	c.ScheduleAddMDS(100, 1)
	c.Run(300)
	if len(c.Servers()) != 3 {
		t.Fatalf("servers = %d, want 3 after expansion", len(c.Servers()))
	}
	s3 := c.Servers()[2]
	if s3.OpsTotal() == 0 {
		t.Fatal("added MDS never absorbed load")
	}
	// Metrics grew too.
	if len(c.Metrics().PerMDS) != 3 {
		t.Fatal("metrics did not grow with the cluster")
	}
}

func TestDataPathSlowsCompletion(t *testing.T) {
	base := Config{Workload: smallZipf(), Clients: 10, Seed: 3}
	noData := newTestCluster(t, base)
	noData.RunUntilDone(20000)

	withData := base
	withData.DataBandwidth = 4 << 20 // starve the data path
	cData := newTestCluster(t, withData)
	cData.RunUntilDone(20000)

	if !cData.Done() {
		t.Fatal("data-path run did not finish")
	}
	if cData.Tick() <= noData.Tick() {
		t.Fatalf("a starved data path must slow completion (%d vs %d)", cData.Tick(), noData.Tick())
	}
}

func TestCreatesMaterializeInNamespace(t *testing.T) {
	c := newTestCluster(t, Config{Workload: smallMD(), Clients: 6})
	before := c.Tree().NumInodes()
	c.RunUntilDone(10000)
	if !c.Done() {
		t.Fatal("MD run did not finish")
	}
	created := c.Tree().NumInodes() - before
	if created != 6*1500 {
		t.Fatalf("created %d inodes, want %d", created, 6*1500)
	}
}

func TestForwardsAccounted(t *testing.T) {
	c := newTestCluster(t, Config{Workload: smallCNN(), Clients: 8})
	c.RunUntilDone(5000)
	rec := c.Metrics()
	// Any balancing at all moves subtrees, which invalidates client
	// caches at least once each: forwards must be visible.
	if c.Migrator().CompletedTasks() > 0 && rec.ForwardsTotal() == 0 {
		t.Fatal("migrations happened but no forwards were recorded")
	}
	var serverFwd int64
	for _, s := range c.Servers() {
		serverFwd += s.Forwards()
	}
	if float64(serverFwd) != rec.ForwardsTotal() {
		t.Fatalf("server forwards %d != recorded %v", serverFwd, rec.ForwardsTotal())
	}
}

func TestEpochMetricsRecorded(t *testing.T) {
	c := newTestCluster(t, Config{})
	c.Run(100)
	rec := c.Metrics()
	if rec.IF.Len() != 10 {
		t.Fatalf("IF samples = %d, want one per epoch", rec.IF.Len())
	}
	if rec.Agg.Len() != 100 {
		t.Fatalf("agg samples = %d, want one per tick", rec.Agg.Len())
	}
}

func TestFrozenSubtreeStallsNotLoses(t *testing.T) {
	// Force a migration of a hot subtree and verify ops are stalled
	// (clients retry) rather than dropped: total served still matches.
	c := newTestCluster(t, Config{Workload: smallZipf(), Clients: 8})
	c.Migrator().RatePerTick = 50
	c.RunUntilDone(20000)
	if !c.Done() {
		t.Fatal("run did not finish")
	}
	var clientOps int64
	for _, cl := range c.Clients() {
		clientOps += cl.OpsDone()
	}
	var served int64
	for _, s := range c.Servers() {
		served += s.OpsTotal()
	}
	if clientOps != served {
		t.Fatalf("ops lost under slow migration: %d vs %d", clientOps, served)
	}
}

func TestScheduledDegradationAbsorbed(t *testing.T) {
	// Ranks lose capacity (failure injection): mid-run, or from tick 0 —
	// heterogeneous hardware. The run must complete with no lost ops, and
	// the degraded servers must have had their capacity changed.
	for _, at := range []int64{0, 50} {
		c := newTestCluster(t, Config{
			Workload: workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 10000}),
			Clients:  15,
		})
		c.ScheduleCapacity(at, 2, 500)
		c.ScheduleCapacity(at, 1, 1000)
		c.RunUntilDone(20000)
		if !c.Done() {
			t.Fatalf("run degraded at tick %d did not finish", at)
		}
		if caps := [3]int{c.Servers()[0].Capacity, c.Servers()[1].Capacity, c.Servers()[2].Capacity}; caps != [3]int{2000, 1000, 500} {
			t.Fatalf("degraded at tick %d: capacities = %v, want [2000 1000 500]", at, caps)
		}
		var clientOps, served int64
		for _, cl := range c.Clients() {
			clientOps += cl.OpsDone()
		}
		for _, s := range c.Servers() {
			served += s.OpsTotal()
		}
		if clientOps != served {
			t.Fatalf("ops lost under degradation at tick %d: %d vs %d", at, clientOps, served)
		}
	}
}

func TestPerMDSCapacity(t *testing.T) {
	// Heterogeneous hardware is a capacity scheduled at tick 0: each rank's
	// capacity is in place when the first tick serves.
	c := newTestCluster(t, Config{MDS: 3})
	c.ScheduleCapacity(0, 2, 500)
	c.ScheduleCapacity(0, 1, 1000)
	c.Step()
	if caps := [3]int{c.Servers()[0].Capacity, c.Servers()[1].Capacity, c.Servers()[2].Capacity}; caps != [3]int{2000, 1000, 500} {
		t.Fatalf("tick 0 ran at capacities %v, want [2000 1000 500]", caps)
	}
}

func TestAuthorityAlwaysResolvable(t *testing.T) {
	c := newTestCluster(t, Config{Workload: smallCNN(), Clients: 8})
	for i := 0; i < 600 && !c.Done(); i++ {
		c.Step()
		if i%200 == 0 {
			c.Tree().Walk(func(in *namespace.Inode) bool {
				auth := c.Partition().AuthOf(in)
				if int(auth) < 0 || int(auth) >= len(c.Servers()) {
					t.Fatalf("inode %d resolves to invalid MDS %d", in.Ino, auth)
				}
				return true
			})
		}
	}
}
