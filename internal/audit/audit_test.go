package audit

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/replica"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// fixture builds a small namespace with a partition, migrator, and n
// servers: /a, /b, /c each hold 8 files, and /a additionally holds two
// subdirectories of 4 files each.
func fixture(t testing.TB, n int) (*namespace.Tree, *namespace.Partition, *mds.Migrator, []*mds.Server) {
	t.Helper()
	tree := namespace.NewTree()
	for _, name := range []string{"/a", "/b", "/c"} {
		dir, err := tree.MkdirAll(name)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 8; f++ {
			if _, err := tree.Create(dir, fmt.Sprintf("f%d", f), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, err := tree.Lookup("/a")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		sub, err := tree.Mkdir(a, fmt.Sprintf("s%d", s))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := tree.Create(sub, fmt.Sprintf("f%d", f), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	part := namespace.NewPartition(tree, 0)
	mig := mds.NewMigrator(part, 100, 2, 20)
	var servers []*mds.Server
	for i := 0; i < n; i++ {
		servers = append(servers, mds.NewServer(namespace.MDSID(i), 2000, 6, 0.9))
	}
	return tree, part, mig, servers
}

func mustDir(t testing.TB, tree *namespace.Tree, path string) *namespace.Inode {
	t.Helper()
	in, err := tree.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAuditorHealthyState(t *testing.T) {
	tree, part, mig, servers := fixture(t, 2)
	part.Carve(mustDir(t, tree, "/b"))
	a := New(Options{})
	state := State{
		Tick: 5, Tree: tree, Partition: part,
		Resolver: namespace.NewResolver(part),
		Migrator: mig, Servers: servers,
	}
	if n := a.Check(state); n != 0 {
		t.Fatalf("healthy state produced %d violations: %v", n, a.Violations())
	}
	if a.Passes() != 1 {
		t.Fatalf("passes = %d, want 1", a.Passes())
	}
	if err := a.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

func TestAuditorFlagsDownAuthority(t *testing.T) {
	tree, part, mig, servers := fixture(t, 2)
	e := part.Carve(mustDir(t, tree, "/b"))
	part.SetAuth(e.Key, 1)
	servers[1].Crash()

	a := New(Options{})
	state := State{Tick: 9, Tree: tree, Partition: part, Migrator: mig, Servers: servers}
	if n := a.Check(state); n != 1 {
		t.Fatalf("violations = %d, want 1: %v", n, a.Violations())
	}
	v := a.Violations()[0]
	if v.Check != "partition/authority" || v.Tick != 9 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.String(), "down and not orphan-tracked") {
		t.Fatalf("violation message = %q", v.String())
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "1 invariant violation") {
		t.Fatalf("Err() = %v", err)
	}

	// The same entry is legitimate while its rank is orphan-tracked
	// during a recovery window.
	b := New(Options{})
	state.Orphaned = func(id namespace.MDSID) bool { return id == 1 }
	if n := b.Check(state); n != 0 {
		t.Fatalf("orphan-tracked authority flagged: %v", b.Violations())
	}
}

func TestAuditorFlagsOutOfRangeAuthority(t *testing.T) {
	tree, part, mig, servers := fixture(t, 2)
	e := part.Carve(mustDir(t, tree, "/c"))
	part.SetAuth(e.Key, 7) // no rank 7 in a 2-MDS cluster

	a := New(Options{})
	if n := a.Check(State{Tree: tree, Partition: part, Migrator: mig, Servers: servers}); n != 1 {
		t.Fatalf("violations = %d, want 1: %v", n, a.Violations())
	}
	if got := a.Violations()[0].Check; got != "partition/authority" {
		t.Fatalf("check = %q", got)
	}
}

// TestAuditorMaxViolationsCap: past maxViolations the checks keep
// running but stop recording.
func TestAuditorMaxViolationsCap(t *testing.T) {
	tree, part, mig, servers := fixture(t, 2)
	for _, p := range []string{"/a", "/b", "/c"} {
		e := part.Carve(mustDir(t, tree, p))
		part.SetAuth(e.Key, 1)
	}
	servers[1].Crash()

	a := New(Options{})
	state := State{Tree: tree, Partition: part, Migrator: mig, Servers: servers}
	if n := a.Check(state); n != 3 {
		t.Fatalf("first pass found %d violations, want 3", n)
	}
	for pass := 1; pass < 40; pass++ { // 120 violations in all
		a.Check(state)
	}
	if len(a.Violations()) != maxViolations {
		t.Fatalf("recorded %d of 120 violations, want the cap %d", len(a.Violations()), maxViolations)
	}
	if a.Passes() != 40 {
		t.Fatalf("passes = %d, want 40: checks keep running past the cap", a.Passes())
	}
}

// TestAuditorFlagsStall: an op that stays outstanding with a rank up
// and nothing served is a liveness violation once livenessTicks pass,
// once per window; with every rank down the stall is not a violation,
// and the window restarts when a rank is back.
func TestAuditorFlagsStall(t *testing.T) {
	tree, part, mig, servers := fixture(t, 2)
	x := tree.Get(namespace.RootIno)
	cl := client.New(0, workload.ClientSpec{
		Stream: workload.NewOpList([]workload.Op{{Kind: workload.OpGetattr, Target: x}}),
	}, 1)
	cl.PeekOp(0, 0) // drawn, never served
	a := New(Options{})
	state := State{Tree: tree, Partition: part, Migrator: mig, Servers: servers,
		Clients: []*client.Client{cl}}
	stalls := func(tick int64) int {
		state.Tick = tick
		a.Check(state)
		n := 0
		for _, v := range a.Violations() {
			if v.Check == "ops/liveness" {
				n++
			}
		}
		return n
	}
	steps := []struct {
		tick int64
		want int
	}{{0, 0}, {livenessTicks - 1, 0}, {livenessTicks, 1}, {livenessTicks + 1, 1}, {2 * livenessTicks, 2}}
	for _, st := range steps {
		if n := stalls(st.tick); n != st.want {
			t.Fatalf("tick %d: %d liveness violations, want %d: %v", st.tick, n, st.want, a.Violations())
		}
	}
	servers[0].Crash()
	servers[1].Crash()
	if n := stalls(10 * livenessTicks); n != 2 {
		t.Fatalf("every rank down: %d liveness violations, want 2", n)
	}
	servers[0].Rejoin()
	if n := stalls(11*livenessTicks - 1); n != 2 {
		t.Fatalf("rank back: the window must restart, got %d violations", n)
	}
}

func TestNilAuditorIsDisabled(t *testing.T) {
	var a *Auditor
	if a.EveryTick() || a.Passes() != 0 || a.Violations() != nil || a.Err() != nil {
		t.Fatal("nil auditor leaked state")
	}
	if n := a.Check(State{}); n != 0 {
		t.Fatalf("nil auditor checked something: %d", n)
	}
}

func TestCheckPartitionCleanOnFreshTree(t *testing.T) {
	tree, part, _, _ := fixture(t, 1)
	if vs := CheckPartition(tree, part); len(vs) != 0 {
		t.Fatalf("fresh partition flagged: %v", vs)
	}
	part.Carve(mustDir(t, tree, "/a"))
	e := part.Carve(mustDir(t, tree, "/b"))
	if _, _, ok := part.SplitEntry(e.Key); !ok {
		t.Fatal("split refused")
	}
	if vs := CheckPartition(tree, part); len(vs) != 0 {
		t.Fatalf("carved+split partition flagged: %v", vs)
	}
}

// leaseFixture builds a 3-rank state whose /b subtree has a synced
// standby under a lease-enabled replication manager, and returns the
// state, the manager, and the /b subtree key. The standby is synced
// (two pumps: the first starts the bulk copy, the second completes it),
// so GrantLeases on the key succeeds.
func leaseFixture(t *testing.T) (State, *replica.Manager, namespace.FragKey) {
	t.Helper()
	tree, part, mig, servers := fixture(t, 3)
	e := part.Carve(mustDir(t, tree, "/b"))
	pol := replica.DefaultPolicy()
	pol.LeaseTicks = 20
	pol.ReplicateReadFrac = 0.75
	mgr := replica.MustManager(pol)
	mgr.Reconcile(part.Entries(), func(namespace.MDSID) bool { return true })
	env := replica.Env{
		Ranks:    len(servers),
		Eligible: func(r namespace.MDSID) bool { return servers[r].Up() && !servers[r].Draining() },
		Load:     func(namespace.MDSID) float64 { return 0 },
		Stats:    func(namespace.MDSID, namespace.FragKey) (int64, float64) { return 0, 0 },
		Inodes:   func(namespace.FragKey) int { return 8 },
	}
	mgr.Pump(0, env)
	mgr.Pump(1, env)
	state := State{
		Tick: 9, Tree: tree, Partition: part,
		Resolver: namespace.NewResolver(part),
		Migrator: mig, Servers: servers, Replicas: mgr,
	}
	return state, mgr, e.Key
}

// checksNamed counts an auditor's violations carrying the given check
// name.
func checksNamed(a *Auditor, name string) int {
	n := 0
	for _, v := range a.Violations() {
		if v.Check == name {
			n++
		}
	}
	return n
}

func TestAuditorLeaseHealthy(t *testing.T) {
	state, mgr, key := leaseFixture(t)
	if granted := mgr.GrantLeases(key, state.Tick+20); len(granted) == 0 {
		t.Fatal("no leases granted on a synced group")
	}
	a := New(Options{})
	if n := a.Check(state); n != 0 {
		t.Fatalf("healthy leased state produced %d violations: %v", n, a.Violations())
	}
}

func TestAuditorLeaseTermViolation(t *testing.T) {
	state, mgr, key := leaseFixture(t)
	// Expires at tick 5, audited at tick 9, never expired: the expiry
	// pump was skipped, which the term invariant must catch.
	if granted := mgr.GrantLeases(key, 5); len(granted) == 0 {
		t.Fatal("no leases granted on a synced group")
	}
	a := New(Options{})
	if a.Check(state) == 0 || checksNamed(a, "lease/term") == 0 {
		t.Fatalf("stale lease not flagged: %v", a.Violations())
	}
}

func TestAuditorLeaseHolderDrainingViolation(t *testing.T) {
	state, mgr, key := leaseFixture(t)
	granted := mgr.GrantLeases(key, state.Tick+20)
	if len(granted) == 0 {
		t.Fatal("no leases granted on a synced group")
	}
	// Drain the holder rank without revoking its lease — the cluster's
	// drain path must DropRank first, so a surviving lease here means
	// that plumbing broke.
	if !state.Servers[granted[0]].StartDrain() {
		t.Fatalf("rank %d refused drain", granted[0])
	}
	a := New(Options{})
	if a.Check(state) == 0 || checksNamed(a, "lease/holder") == 0 {
		t.Fatalf("lease on draining rank not flagged: %v", a.Violations())
	}
}

func TestAuditorLeaseCountViolation(t *testing.T) {
	state, mgr, key := leaseFixture(t)
	if granted := mgr.GrantLeases(key, state.Tick+20); len(granted) == 0 {
		t.Fatal("no leases granted on a synced group")
	}
	// Leases dropped behind the manager's back: its running count — the
	// engine's "any lease live?" gate — no longer matches the groups.
	g := mgr.GroupOf(key)
	g.Leases = g.Leases[:0]
	a := New(Options{})
	if a.Check(state) == 0 || checksNamed(a, "lease/count") == 0 {
		t.Fatalf("drifted live-lease count not flagged: %v", a.Violations())
	}
}

// TestAuditorVisitedViolation: a tree whose every inode was visited
// once is healthy; a first visit marked on an inode the tree never
// linked — a create's carved file, its name taken — is one file too
// many.
func TestAuditorVisitedViolation(t *testing.T) {
	tree, part, mig, servers := fixture(t, 2)
	state := State{Tick: 9, Tree: tree, Partition: part, Migrator: mig, Servers: servers}
	for ino := namespace.RootIno; ino <= tree.MaxIno(); ino++ {
		tree.Get(ino).MarkVisited()
	}
	a := New(Options{})
	if n := a.Check(state); n != 0 {
		t.Fatalf("fully visited tree produced %d violations: %v", n, a.Violations())
	}
	var arena namespace.InodeArena
	phantom, err := arena.NewFile(mustDir(t, tree, "/a"), "f0", 1)
	if err != nil {
		t.Fatal(err)
	}
	phantom.MarkVisited()
	if a.Check(state) == 0 || checksNamed(a, "namespace/visited") == 0 {
		t.Fatalf("a visit to an unlinked inode not flagged: %v", a.Violations())
	}
}

// tenantFixture builds a clean 2-tenant state mid-tick: tenant 0 was
// bucket-admitted 6 ops and served 6, tenant 1 admitted 3 and served 2.
func tenantFixture(t *testing.T) (State, *tenant.Manager) {
	t.Helper()
	tree, part, mig, servers := fixture(t, 2)
	pol := tenant.DefaultPolicy()
	pol.Rate, pol.Burst = 10, 20
	tn := tenant.MustManager(pol)
	if err := tn.Bind([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	tn.BeginTick()
	tn.NoteAdmitted(0, tn.Take(0, 6))
	tn.NoteAdmitted(1, tn.Take(1, 3))
	state := State{
		Tick: 9, Tree: tree, Partition: part,
		Resolver: namespace.NewResolver(part),
		Migrator: mig, Servers: servers,
		Tenancy:        tn,
		TenantAdmitted: 9,
		TenantServed:   []int64{6, 2},
	}
	return state, tn
}

func TestAuditorTenantHealthy(t *testing.T) {
	state, tn := tenantFixture(t)
	a := New(Options{})
	if n := a.Check(state); n != 0 {
		t.Fatalf("healthy tenant state produced %d violations: %v", n, a.Violations())
	}
	// Buckets stayed in range after the takes.
	for i := 0; i < tn.N(); i++ {
		if tok := tn.Tokens(i); tok < 0 || tok > tn.BurstOf(i) {
			t.Fatalf("tenant %d tokens %g outside bucket", i, tok)
		}
	}
}

func TestAuditorTenantConservationViolation(t *testing.T) {
	state, _ := tenantFixture(t)
	// The cluster claims one more admitted op than the tenants were
	// charged for — an op slipped past the buckets.
	state.TenantAdmitted = 10
	a := New(Options{})
	if a.Check(state) == 0 || checksNamed(a, "tenant/conservation") == 0 {
		t.Fatalf("admission mismatch not flagged: %v", a.Violations())
	}
}

func TestAuditorTenantServedViolation(t *testing.T) {
	state, _ := tenantFixture(t)
	// Tenant 1's bucket admitted 3 ops this tick but the ranks served 5:
	// the serve phase bypassed admission control.
	state.TenantServed = []int64{6, 5}
	a := New(Options{})
	if a.Check(state) == 0 || checksNamed(a, "tenant/served") == 0 {
		t.Fatalf("over-serving not flagged: %v", a.Violations())
	}
}

func TestAuditorTenantNilSkipsFamily(t *testing.T) {
	state, _ := tenantFixture(t)
	state.Tenancy = nil
	state.TenantAdmitted = 999 // would violate conservation if checked
	a := New(Options{})
	if n := a.Check(state); n != 0 {
		t.Fatalf("nil tenancy still audited: %v", a.Violations())
	}
}

func TestAuditorLeaseInvalidateViolation(t *testing.T) {
	state, mgr, key := leaseFixture(t)
	if granted := mgr.GrantLeases(key, state.Tick+20); len(granted) == 0 {
		t.Fatal("no leases granted on a synced group")
	}
	// The key was write-invalidated this tick, yet its leases are still
	// live at audit time.
	state.LeaseWriteRevoked = []namespace.FragKey{key}
	a := New(Options{})
	if a.Check(state) == 0 || checksNamed(a, "lease/invalidate") == 0 {
		t.Fatalf("write-invalidated subtree with live leases not flagged: %v", a.Violations())
	}
}
