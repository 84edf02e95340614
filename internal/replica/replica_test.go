package replica

import (
	"math"
	"testing"

	"repro/internal/namespace"
)

func key(dir namespace.Ino) namespace.FragKey {
	return namespace.FragKey{Dir: dir, Frag: namespace.WholeFrag}
}

func entry(dir namespace.Ino, auth namespace.MDSID) namespace.Entry {
	return namespace.Entry{Key: key(dir), Auth: auth}
}

// testEnv builds an Env over plain maps: stats[rank][key] is the
// primary's cumulative (ops, heat) reading, everything is alive and
// eligible unless listed, and load defaults to zero.
type testEnv struct {
	ranks  int
	down   map[namespace.MDSID]bool
	noImp  map[namespace.MDSID]bool
	load   map[namespace.MDSID]float64
	ops    map[namespace.FragKey]int64
	heat   map[namespace.FragKey]float64
	inodes map[namespace.FragKey]int

	resyncs []namespace.MDSID
}

func (te *testEnv) env() Env {
	return Env{
		Ranks: te.ranks,
		Eligible: func(id namespace.MDSID) bool {
			return !te.down[id] && !te.noImp[id]
		},
		Load: func(id namespace.MDSID) float64 { return te.load[id] },
		Stats: func(id namespace.MDSID, k namespace.FragKey) (int64, float64) {
			return te.ops[k], te.heat[k]
		},
		Inodes: func(k namespace.FragKey) int {
			if n := te.inodes[k]; n > 0 {
				return n
			}
			return 1
		},
		OnResync: func(k namespace.FragKey, rank namespace.MDSID, inodes int) {
			te.resyncs = append(te.resyncs, rank)
		},
	}
}

func retainAll(namespace.MDSID) bool { return true }

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []Policy{
		{R: 1, ShipEvery: 5, PromoteTicks: 2, ResyncRate: 1},
		{R: 2, ShipEvery: 0, PromoteTicks: 2, ResyncRate: 1},
		{R: 2, ShipEvery: 5, PromoteTicks: 0, ResyncRate: 1},
		{R: 2, ShipEvery: 5, PromoteTicks: 2, ResyncRate: 0},
		{R: 2, ShipEvery: 5, PromoteTicks: 2, ResyncRate: 1, LeaseTicks: 10, ReplicateReadFrac: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: policy %+v must not validate", i, p)
		}
	}
	if _, err := NewManager(Policy{R: 1}); err == nil {
		t.Fatal("NewManager must reject invalid policies")
	}
}

func TestJournalShipBoundedLagAndPrefix(t *testing.T) {
	pol := DefaultPolicy()
	pol.ShipEvery = 1
	pol.ResyncRate = 1000
	m := MustManager(pol)
	te := &testEnv{ranks: 3, ops: map[namespace.FragKey]int64{}, heat: map[namespace.FragKey]float64{}}
	k := key(7)
	m.Reconcile([]namespace.Entry{entry(7, 0)}, retainAll)

	// Tick 0: the re-replicator starts a sync (1 inode); it completes
	// in tick 1's pump, so from tick 1 the standby is synced.
	m.Pump(0, te.env())
	m.Pump(1, te.env())
	g := m.GroupOf(k)
	if g == nil || len(g.Standbys) != 1 || g.Standbys[0].Syncing {
		t.Fatalf("want one synced standby after two pumps, got %+v", g)
	}
	sb := g.Standbys[0]

	for tick := int64(2); tick <= 6; tick++ {
		te.ops[k] += 10
		te.heat[k] += 2.5
		m.Pump(tick, te.env())
		if lag := g.Appended() - sb.Applied; lag > 1 {
			t.Fatalf("tick %d: standby lag %d exceeds bound 1", tick, lag)
		}
		ops, heat, ok := g.PrefixAt(sb.Applied)
		if !ok {
			t.Fatalf("tick %d: journal truncated past applied seq %d", tick, sb.Applied)
		}
		if sb.Ops != ops || sb.Heat != heat {
			t.Fatalf("tick %d: standby state (%d, %g) != journal prefix (%d, %g)",
				tick, sb.Ops, sb.Heat, ops, heat)
		}
	}
	// After 5 ships of +10 ops each, the standby has applied all but
	// the newest record: 40 ops.
	if sb.Ops != 40 {
		t.Fatalf("standby applied ops = %d, want 40 (one ship behind 50)", sb.Ops)
	}
	if g.Appended() == 0 || m.Records() == 0 {
		t.Fatal("journal must have appended records")
	}
	if m.MaxLag() != 1 {
		t.Fatalf("MaxLag = %d, want 1", m.MaxLag())
	}
}

func TestStatResetRestartsDeltaBasis(t *testing.T) {
	pol := DefaultPolicy()
	pol.ShipEvery = 1
	m := MustManager(pol)
	te := &testEnv{ranks: 2, ops: map[namespace.FragKey]int64{}, heat: map[namespace.FragKey]float64{}}
	k := key(3)
	m.Reconcile([]namespace.Entry{entry(3, 0)}, retainAll)
	te.ops[k], te.heat[k] = 100, 50
	m.Pump(0, te.env())
	// The primary rejoined: its counters reset and restart small.
	te.ops[k], te.heat[k] = 7, 1.5
	m.Pump(1, te.env())
	g := m.GroupOf(k)
	ops, heat, _ := g.PrefixAt(g.Appended())
	if ops != 107 {
		t.Fatalf("total ops = %d, want 107 (100 then a reset reading of 7)", ops)
	}
	if heat != 1.5 {
		t.Fatalf("total heat = %g, want 1.5 (heat deltas track the reading)", heat)
	}
}

func TestRereplicatePlacementAndBounds(t *testing.T) {
	pol := DefaultPolicy()
	pol.R = 3
	pol.ResyncRate = 1 // keep syncs in flight
	m := MustManager(pol)
	te := &testEnv{
		ranks:  4,
		load:   map[namespace.MDSID]float64{0: 5, 1: 3, 2: 9, 3: 1},
		noImp:  map[namespace.MDSID]bool{2: true}, // draining: not eligible
		ops:    map[namespace.FragKey]int64{},
		heat:   map[namespace.FragKey]float64{},
		inodes: map[namespace.FragKey]int{},
	}
	// One group more than ranks 1 and 3 have sync slots for, all led
	// by rank 0.
	var entries []namespace.Entry
	for d := namespace.Ino(1); d <= maxSyncsPerRank+1; d++ {
		entries = append(entries, entry(d, 0))
		te.inodes[key(d)] = 100
	}
	m.Reconcile(entries, retainAll)
	m.Pump(0, te.env())
	// Each of the first maxSyncsPerRank groups gets the two
	// least-loaded eligible ranks (3 then 1); the last finds both
	// saturated and gets nobody.
	for d := namespace.Ino(1); d <= maxSyncsPerRank; d++ {
		if g := m.GroupOf(key(d)); len(g.Standbys) != 2 || g.Standbys[0].Rank != 3 || g.Standbys[1].Rank != 1 {
			t.Fatalf("group %d standbys = %+v, want ranks [3 1]", d, g.Standbys)
		}
	}
	if g := m.GroupOf(key(maxSyncsPerRank + 1)); len(g.Standbys) != 0 {
		t.Fatalf("the last group must wait for sync slots, got %+v", g.Standbys)
	}
	if m.ResyncsStarted() != 2*maxSyncsPerRank || m.SyncingStandbys() != 2*maxSyncsPerRank {
		t.Fatalf("resyncs started = %d, syncing = %d, want %d each",
			m.ResyncsStarted(), m.SyncingStandbys(), 2*maxSyncsPerRank)
	}
}

func TestResyncCompletionFastForwards(t *testing.T) {
	pol := DefaultPolicy()
	pol.ShipEvery = 1
	pol.ResyncRate = 50
	m := MustManager(pol)
	te := &testEnv{
		ranks:  2,
		ops:    map[namespace.FragKey]int64{},
		heat:   map[namespace.FragKey]float64{},
		inodes: map[namespace.FragKey]int{key(4): 100},
	}
	k := key(4)
	m.Reconcile([]namespace.Entry{entry(4, 0)}, retainAll)
	te.ops[k], te.heat[k] = 30, 12
	m.Pump(0, te.env()) // sync starts (100 inodes, 50/tick)
	te.ops[k] = 60
	m.Pump(1, te.env()) // 50 inodes left
	m.Pump(2, te.env()) // sync completes, fast-forwards to the head
	g := m.GroupOf(k)
	if len(g.Standbys) != 1 || g.Standbys[0].Syncing {
		t.Fatalf("standby must be synced, got %+v", g.Standbys)
	}
	sb := g.Standbys[0]
	ops, heat, _ := g.PrefixAt(g.Appended())
	if sb.Applied != g.Appended() || sb.Ops != ops || sb.Heat != heat {
		t.Fatalf("fast-forward mismatch: standby %+v, journal head (%d, %d, %g)",
			sb, g.Appended(), ops, heat)
	}
	if m.ResyncsDone() != 1 || len(te.resyncs) != 1 || te.resyncs[0] != 1 {
		t.Fatalf("resync completion not reported: done=%d, callbacks=%v",
			m.ResyncsDone(), te.resyncs)
	}
}

func TestPromotePicksBestSyncedStandby(t *testing.T) {
	pol := DefaultPolicy()
	pol.R = 3
	pol.ShipEvery = 1
	pol.ResyncRate = 1000
	m := MustManager(pol)
	te := &testEnv{
		ranks: 4,
		load:  map[namespace.MDSID]float64{1: 4, 2: 2, 3: 2},
		ops:   map[namespace.FragKey]int64{},
		heat:  map[namespace.FragKey]float64{},
	}
	k := key(9)
	m.Reconcile([]namespace.Entry{entry(9, 0)}, retainAll)
	m.Pump(0, te.env()) // standbys sync and complete
	te.ops[k], te.heat[k] = 20, 8
	m.Pump(1, te.env())
	m.Pump(2, te.env()) // standbys apply the 20-op record

	eligible := func(id namespace.MDSID) bool { return id != 0 }
	load := func(id namespace.MDSID) float64 { return te.load[id] }
	to, heat, lag, ok := m.Promote(k, 0, eligible, load)
	if !ok {
		t.Fatal("promotion must find a synced standby")
	}
	// Ranks 2 and 3 tie on load 2; the lower rank wins.
	if to != 2 {
		t.Fatalf("promoted rank %d, want 2 (least-loaded, lowest rank)", to)
	}
	if heat != 8 {
		t.Fatalf("warm heat = %g, want the applied prefix 8", heat)
	}
	if lag != 1 {
		t.Fatalf("promotion lag = %d records, want 1", lag)
	}
	g := m.GroupOf(k)
	if g.Primary != 2 {
		t.Fatalf("group primary = %d after promote, want 2", g.Primary)
	}
	for _, sb := range g.Standbys {
		if sb.Rank == 2 {
			t.Fatal("promoted rank must leave the standby set")
		}
		if !sb.Syncing && (sb.Ops != g.Standbys[0].Ops || sb.Applied != g.Appended()) {
			t.Fatalf("remaining standby not rebased: %+v", sb)
		}
	}
	if m.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", m.Promotions())
	}
	// Wrong dead rank, unknown key, and no-standby groups all refuse.
	if _, _, _, ok := m.Promote(k, 0, eligible, load); ok {
		t.Fatal("promotion must refuse when the group is not led by the dead rank")
	}
	if _, _, _, ok := m.Promote(key(99), 0, eligible, load); ok {
		t.Fatal("promotion must refuse unknown groups")
	}
}

func TestPromoteSkipsSyncingAndIneligible(t *testing.T) {
	pol := DefaultPolicy()
	pol.ShipEvery = 1
	pol.ResyncRate = 1 // syncs never finish within the test
	m := MustManager(pol)
	te := &testEnv{
		ranks:  2,
		ops:    map[namespace.FragKey]int64{},
		heat:   map[namespace.FragKey]float64{},
		inodes: map[namespace.FragKey]int{key(5): 1000},
	}
	k := key(5)
	m.Reconcile([]namespace.Entry{entry(5, 0)}, retainAll)
	m.Pump(0, te.env())
	if m.SyncingStandbys() != 1 {
		t.Fatalf("want one in-flight sync, got %d", m.SyncingStandbys())
	}
	if _, _, _, ok := m.Promote(k, 0,
		func(namespace.MDSID) bool { return true },
		func(namespace.MDSID) float64 { return 0 }); ok {
		t.Fatal("a syncing standby must not be promotable")
	}
}

func TestReconcileRebasesAndDrops(t *testing.T) {
	pol := DefaultPolicy()
	pol.ShipEvery = 1
	pol.ResyncRate = 1000
	m := MustManager(pol)
	te := &testEnv{ranks: 3, ops: map[namespace.FragKey]int64{}, heat: map[namespace.FragKey]float64{}}
	m.Reconcile([]namespace.Entry{entry(1, 0), entry(2, 1)}, retainAll)
	m.Pump(0, te.env())
	if m.Groups() != 2 {
		t.Fatalf("groups = %d, want 2", m.Groups())
	}
	// Entry 2 vanished (absorbed); entry 1 migrated to rank 2, which
	// happens to hold a standby — the standby folds into the primary.
	g1 := m.GroupOf(key(1))
	standbyRank := g1.Standbys[0].Rank
	m.Reconcile([]namespace.Entry{entry(1, standbyRank)}, retainAll)
	if m.Groups() != 1 {
		t.Fatalf("groups = %d after absorb, want 1", m.Groups())
	}
	g1 = m.GroupOf(key(1))
	if g1.Primary != standbyRank || g1.hasStandby(standbyRank) {
		t.Fatalf("rebase must install the new primary and drop it from standbys: %+v", g1)
	}
	// Standbys on ranks failing retain are dropped.
	m.Pump(1, te.env()) // re-replicate a standby
	if len(m.GroupOf(key(1)).Standbys) == 0 {
		t.Fatal("re-replicator must have placed a standby")
	}
	m.Reconcile([]namespace.Entry{entry(1, standbyRank)}, func(namespace.MDSID) bool { return false })
	if len(m.GroupOf(key(1)).Standbys) != 0 {
		t.Fatal("retain=false must drop every standby")
	}
}

func TestDropRankRemovesStandbys(t *testing.T) {
	pol := DefaultPolicy()
	pol.R = 3
	pol.ShipEvery = 1
	pol.ResyncRate = 1000
	m := MustManager(pol)
	te := &testEnv{ranks: 3, ops: map[namespace.FragKey]int64{}, heat: map[namespace.FragKey]float64{}}
	m.Reconcile([]namespace.Entry{entry(1, 0)}, retainAll)
	m.Pump(0, te.env())
	g := m.GroupOf(key(1))
	if len(g.Standbys) != 2 {
		t.Fatalf("want standbys on ranks 1 and 2, got %+v", g.Standbys)
	}
	m.DropRank(1)
	if len(g.Standbys) != 1 || g.Standbys[0].Rank != 2 {
		t.Fatalf("DropRank(1) must leave only rank 2, got %+v", g.Standbys)
	}
	// The primary is untouched by DropRank.
	m.DropRank(0)
	if g.Primary != 0 {
		t.Fatalf("DropRank must not touch primaries, got %d", g.Primary)
	}
}
