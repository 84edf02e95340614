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

// testEnv builds an Env over plain maps: heat[key] is the primary's
// cumulative heat reading (its ops reading is always 0: the journal
// ships heat only), everything is alive and eligible unless listed,
// and load defaults to zero.
type testEnv struct {
	ranks  int
	down   map[namespace.MDSID]bool
	noImp  map[namespace.MDSID]bool
	load   map[namespace.MDSID]float64
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
			return 0, te.heat[k]
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
		{R: 1},
		{R: 2, LeaseTicks: -1},
		{R: 2, LeaseTicks: 10, ReplicateReadFrac: math.NaN()},
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
	m := MustManager(DefaultPolicy())
	te := &testEnv{ranks: 3, heat: map[namespace.FragKey]float64{}}
	k := key(7)
	m.Reconcile([]namespace.Entry{entry(7, 0)}, retainAll)

	// Ship 0: the re-replicator starts a sync (1 inode); it completes
	// in ship 1's pump, so from ship 1 the standby is synced.
	m.Pump(0, te.env())
	m.Pump(shipEvery, te.env())
	g := m.GroupOf(k)
	if g == nil || len(g.Standbys) != 1 || g.Standbys[0].Syncing {
		t.Fatalf("want one synced standby after two pumps, got %+v", g)
	}
	sb := g.Standbys[0]

	for ship := int64(2); ship <= 6; ship++ {
		te.heat[k] += 2.5
		m.Pump(ship*shipEvery, te.env())
		// A pump off the ship cadence appends nothing.
		m.Pump(ship*shipEvery+1, te.env())
		if lag := g.Appended() - sb.Applied; lag > 1 {
			t.Fatalf("ship %d: standby lag %d exceeds bound 1", ship, lag)
		}
		heat, ok := g.PrefixAt(sb.Applied)
		if !ok {
			t.Fatalf("ship %d: journal truncated past applied seq %d", ship, sb.Applied)
		}
		if sb.Heat != heat {
			t.Fatalf("ship %d: standby heat %g != journal prefix %g", ship, sb.Heat, heat)
		}
	}
	if g.Appended() != 7 {
		t.Fatalf("appended %d records, want one per ship (7)", g.Appended())
	}
	// After 5 ships of +2.5 heat each, the standby has applied all but
	// the newest record: 10.
	if sb.Heat != 10 {
		t.Fatalf("standby applied heat = %g, want 10 (one ship behind 12.5)", sb.Heat)
	}
	// The journal answers the head and the one record behind it, and
	// nothing older or newer.
	for _, seq := range []uint64{g.Appended() - 2, g.Appended() + 1} {
		if _, ok := g.PrefixAt(seq); ok {
			t.Fatalf("PrefixAt(%d) answered with head %d", seq, g.Appended())
		}
	}
	if g.Appended() == 0 || m.Records() == 0 {
		t.Fatal("journal must have appended records")
	}
	if m.MaxLag() != 1 {
		t.Fatalf("MaxLag = %d, want 1", m.MaxLag())
	}
}

func TestStatResetRestartsDeltaBasis(t *testing.T) {
	m := MustManager(DefaultPolicy())
	te := &testEnv{ranks: 2, heat: map[namespace.FragKey]float64{}}
	k := key(3)
	m.Reconcile([]namespace.Entry{entry(3, 0)}, retainAll)
	te.heat[k] = 50
	m.Pump(0, te.env())
	// The primary rejoined: its counters reset and restart small.
	te.heat[k] = 1.5
	m.Pump(shipEvery, te.env())
	g := m.GroupOf(k)
	if heat, _ := g.PrefixAt(g.Appended()); heat != 1.5 {
		t.Fatalf("total heat = %g, want 1.5 (heat deltas track the reading)", heat)
	}
}

// TestHeatResetWithinShipInterval: the primary's reading falls to 0
// (the heat-epoch purge resets an idle key) and climbs past its old
// value before the next ship. The signed heat delta carries both
// moves, so every synced standby holds PrefixAt(Applied), which is the
// reading one ship ago.
func TestHeatResetWithinShipInterval(t *testing.T) {
	pol := DefaultPolicy()
	pol.R = 3
	m := MustManager(pol)
	te := &testEnv{ranks: 3, heat: map[namespace.FragKey]float64{}}
	k := key(6)
	m.Reconcile([]namespace.Entry{entry(6, 0)}, retainAll)
	m.Pump(0, te.env())         // both standbys start a sync
	m.Pump(shipEvery, te.env()) // and complete it at the journal head
	g := m.GroupOf(k)
	prev := 0.0
	for i, step := range []struct {
		purge bool
		add   float64
	}{{false, 40}, {true, 55}, {false, 0}, {true, 10}, {false, 30}} {
		if step.purge {
			te.heat[k] = 0
		}
		te.heat[k] += step.add
		m.Pump(int64(i+2)*shipEvery, te.env())
		for _, sb := range g.Standbys {
			heat, ok := g.PrefixAt(sb.Applied)
			if sb.Syncing || !ok || sb.Heat != heat {
				t.Fatalf("ship %d: standby %+v, journal prefix %g (ok %v)", i, sb, heat, ok)
			}
			if sb.Heat != prev {
				t.Fatalf("ship %d: standby %d heat %g, want the previous ship's reading %g",
					i, sb.Rank, sb.Heat, prev)
			}
		}
		prev = te.heat[k]
	}
	if len(g.Standbys) != 2 {
		t.Fatalf("want 2 synced standbys, got %+v", g.Standbys)
	}
}

func TestRereplicatePlacementAndBounds(t *testing.T) {
	pol := DefaultPolicy()
	pol.R = 3
	m := MustManager(pol)
	te := &testEnv{
		ranks:  4,
		load:   map[namespace.MDSID]float64{0: 5, 1: 3, 2: 9, 3: 1},
		noImp:  map[namespace.MDSID]bool{2: true}, // draining: not eligible
		heat:   map[namespace.FragKey]float64{},
		inodes: map[namespace.FragKey]int{},
	}
	// One group more than ranks 1 and 3 have sync slots for, all led
	// by rank 0.
	var entries []namespace.Entry
	for d := namespace.Ino(1); d <= maxSyncsPerRank+1; d++ {
		entries = append(entries, entry(d, 0))
		te.inodes[key(d)] = 2 * resyncRate // in flight past the next pump
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
	m := MustManager(DefaultPolicy())
	te := &testEnv{
		ranks:  2,
		heat:   map[namespace.FragKey]float64{},
		inodes: map[namespace.FragKey]int{key(4): 2 * resyncRate},
	}
	k := key(4)
	m.Reconcile([]namespace.Entry{entry(4, 0)}, retainAll)
	te.heat[k] = 12
	m.Pump(0, te.env()) // sync starts (two ticks of resync)
	te.heat[k] = 20
	m.Pump(shipEvery, te.env()) // half the inodes left
	if sb := m.GroupOf(k).Standbys[0]; !sb.Syncing || sb.SyncLeft != resyncRate {
		t.Fatalf("after one pump: standby %+v, want %d inodes left", sb, resyncRate)
	}
	m.Pump(2*shipEvery, te.env()) // sync completes, fast-forwards to the head
	g := m.GroupOf(k)
	if len(g.Standbys) != 1 || g.Standbys[0].Syncing {
		t.Fatalf("standby must be synced, got %+v", g.Standbys)
	}
	sb := g.Standbys[0]
	heat, _ := g.PrefixAt(g.Appended())
	if sb.Applied != g.Appended() || sb.Heat != heat {
		t.Fatalf("fast-forward mismatch: standby %+v, journal head (%d, %g)",
			sb, g.Appended(), heat)
	}
	if m.ResyncsDone() != 1 || len(te.resyncs) != 1 || te.resyncs[0] != 1 {
		t.Fatalf("resync completion not reported: done=%d, callbacks=%v",
			m.ResyncsDone(), te.resyncs)
	}
}

func TestPromotePicksBestSyncedStandby(t *testing.T) {
	pol := DefaultPolicy()
	pol.R = 3
	m := MustManager(pol)
	te := &testEnv{
		ranks: 4,
		load:  map[namespace.MDSID]float64{1: 4, 2: 2, 3: 2},
		heat:  map[namespace.FragKey]float64{},
	}
	k := key(9)
	m.Reconcile([]namespace.Entry{entry(9, 0)}, retainAll)
	m.Pump(0, te.env()) // standbys sync and complete
	te.heat[k] = 8
	m.Pump(shipEvery, te.env())
	m.Pump(2*shipEvery, te.env()) // standbys apply the record of heat 8

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
		if !sb.Syncing && (sb.Heat != heat || sb.Applied != g.Appended()) {
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
	m := MustManager(DefaultPolicy())
	te := &testEnv{
		ranks:  2,
		heat:   map[namespace.FragKey]float64{},
		inodes: map[namespace.FragKey]int{key(5): 2 * resyncRate}, // in flight past the next pump
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
	m := MustManager(DefaultPolicy())
	te := &testEnv{ranks: 3, heat: map[namespace.FragKey]float64{}}
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
	m.Pump(shipEvery, te.env()) // re-replicate a standby
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
	m := MustManager(pol)
	te := &testEnv{ranks: 3, heat: map[namespace.FragKey]float64{}}
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
