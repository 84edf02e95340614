package mds

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
	"repro/internal/trace"
)

func fixture(t testing.TB) (*namespace.Tree, *namespace.Partition, []*namespace.Inode) {
	t.Helper()
	tr := namespace.NewTree()
	d, err := tr.Mkdir(tr.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*namespace.Inode, 20)
	for i := range files {
		f, err := tr.Create(d, fmt.Sprintf("f%03d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return tr, namespace.NewPartition(tr, 0), files
}

func TestServerBudget(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 3, 4, 0.5)
	s.BeginTick()
	e := p.GoverningEntry(files[0])
	for i := 0; i < 3; i++ {
		if !s.Serve(e, files[i], 0) {
			t.Fatalf("serve %d should succeed", i)
		}
	}
	if s.Serve(e, files[3], 0) {
		t.Fatal("serve beyond capacity must fail")
	}
	if s.OpsThisTick() != 3 {
		t.Fatalf("ops this tick = %d", s.OpsThisTick())
	}
	s.BeginTick()
	if !s.Serve(e, files[4], 0) {
		t.Fatal("budget must reset on new tick")
	}
}

func TestServerForwardChargesBudget(t *testing.T) {
	s := NewServer(0, 2, 4, 0.5)
	s.BeginTick()
	s.AddForwardCharges(1)
	if s.RemainingBudget() != 1 {
		t.Fatalf("budget after one forward = %d, want 1", s.RemainingBudget())
	}
	// A charge past the budget (a chain through this server twice) is
	// counted whole; the budget floors at zero.
	s.AddForwardCharges(3)
	if s.HasBudget() || s.RemainingBudget() != 0 {
		t.Fatalf("budget after over-charge = %d, want 0", s.RemainingBudget())
	}
	if s.Forwards() != 4 {
		t.Fatalf("forwards = %d, want 4", s.Forwards())
	}
}

func TestServerEpochLoadAndHistory(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 100, 4, 0.5)
	e := p.GoverningEntry(files[0])
	for tick := 0; tick < 10; tick++ {
		s.BeginTick()
		for i := 0; i < 5; i++ {
			if !s.Serve(e, files[i], 0) {
				t.Fatal("serve")
			}
		}
	}
	load := s.EndEpoch(10)
	if load != 5 {
		t.Fatalf("epoch load = %v, want 5 ops/sec", load)
	}
	if s.CurrentLoad() != 5 || len(s.LoadHistory()) != 1 {
		t.Fatal("load history")
	}
	// Second epoch with no traffic.
	if got := s.EndEpoch(10); got != 0 {
		t.Fatalf("idle epoch load = %v", got)
	}
}

func TestServerHeatAccumulatesAndDecays(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 1000, 4, 0.5)
	e := p.GoverningEntry(files[0])
	s.BeginTick()
	for i := 0; i < 10; i++ {
		s.Serve(e, files[i], 0)
	}
	if s.HeatOfKey(e.Key) != 10 {
		t.Fatalf("heat = %v", s.HeatOfKey(e.Key))
	}
	dir := files[0].Parent
	if s.HeatOfDir(dir) != 10 {
		t.Fatalf("dir heat = %v", s.HeatOfDir(dir))
	}
	s.EndEpoch(10)
	if s.HeatOfKey(e.Key) != 5 {
		t.Fatalf("decayed heat = %v", s.HeatOfKey(e.Key))
	}
	// Heat eventually evaporates completely.
	for i := 0; i < 20; i++ {
		s.EndEpoch(10)
	}
	if s.HeatOfKey(e.Key) != 0 {
		t.Fatal("heat should evaporate")
	}
}

func TestServerDropSubtreeStats(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 1000, 4, 0.5)
	e := p.GoverningEntry(files[0])
	s.BeginTick()
	s.Serve(e, files[0], 0)
	s.DropSubtreeStats(e.Key)
	if s.HeatOfKey(e.Key) != 0 {
		t.Fatal("heat not dropped")
	}
	if got := s.Collector().RecentKey(e.Key, 0, 1); got != (trace.Counters{}) {
		t.Fatal("trace not dropped")
	}
}

func TestMigratorLifecycle(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	task := m.Submit(e.Key, 0, 1, 50, 0)
	if task.State != TaskQueued || m.QueuedTasks() != 1 {
		t.Fatal("submit")
	}
	m.Tick(0)
	if task.State != TaskActive || m.ActiveTasks() != 1 {
		t.Fatalf("task state after tick = %v", task.State)
	}
	// 20 inodes ship in one tick; the two-phase commit's floor sets
	// the duration.
	if task.DoneTick != exportLatencyTicks {
		t.Fatalf("DoneTick = %d, want %d", task.DoneTick, exportLatencyTicks)
	}
	// The subtree stays serviceable during the bulk transfer and
	// freezes only in the commit window (the last FreezeTicks ticks).
	if m.IsFrozen(e.Key) {
		t.Fatal("subtree must not freeze during bulk transfer")
	}
	for tick := int64(1); tick < task.DoneTick-FreezeTicks; tick++ {
		if m.Tick(tick); m.IsFrozen(e.Key) {
			t.Fatalf("subtree frozen at tick %d, during bulk transfer", tick)
		}
	}
	for tick := task.DoneTick - FreezeTicks; tick < task.DoneTick; tick++ {
		m.Tick(tick)
		if task.State != TaskActive {
			t.Fatal("should still be in flight")
		}
		if !m.IsFrozen(e.Key) {
			t.Fatal("subtree must freeze during the commit window")
		}
	}
	m.Tick(task.DoneTick)
	if task.State != TaskDone {
		t.Fatal("should have completed")
	}
	if m.IsFrozen(e.Key) {
		t.Fatal("must unfreeze on completion")
	}
	if p.GoverningEntry(tr.Get(d.Children()[0].Ino)).Auth != 1 {
		t.Fatal("authority must transfer")
	}
	if m.MigratedInodes() != 20 {
		t.Fatalf("migrated inodes = %d", m.MigratedInodes())
	}
	if m.CompletedTasks() != 1 {
		t.Fatal("completed count")
	}
}

// TestMigratorCompleteVanishedEntry is the regression test for the
// stale-commit bug: an entry can be absorbed (or split away) while its
// export is in flight — the exporter keeps serving, and housekeeping
// keeps reshaping, the subtree until the freeze window. Completion must
// then account the task as dropped (reason "vanished"), not commit
// authority onto a key that no longer exists.
func TestMigratorCompleteVanishedEntry(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	task := m.Submit(e.Key, 0, 1, 50, 0)
	m.Tick(0)
	if task.State != TaskActive {
		t.Fatalf("task state after tick = %v", task.State)
	}
	// Absorb the entry mid-flight (before its DoneTick).
	if !p.Absorb(e.Key) {
		t.Fatal("absorb")
	}
	verBefore := p.Version()
	for tick := int64(1); tick <= task.DoneTick; tick++ {
		m.Tick(tick)
	}
	if task.State != TaskDropped {
		t.Fatalf("task state = %v, want TaskDropped: completion committed onto a vanished entry", task.State)
	}
	if m.DroppedTasks() != 1 {
		t.Fatalf("dropped count = %d, want 1", m.DroppedTasks())
	}
	if m.CompletedTasks() != 0 || m.MigratedInodes() != 0 {
		t.Fatalf("vanished export must not count as completed (completed=%d, inodes=%d)",
			m.CompletedTasks(), m.MigratedInodes())
	}
	if m.ActiveTasks() != 0 || m.IsFrozen(e.Key) {
		t.Fatal("task must leave the active set and unfreeze")
	}
	// The stale key must not have been touched: no partition mutation
	// besides the absorb itself.
	if p.Version() != verBefore {
		t.Fatalf("completion mutated the partition through a stale key (version %d -> %d)",
			verBefore, p.Version())
	}
	// Counter reconciliation still holds after the vanish drop.
	sum := int64(m.QueuedTasks()) + int64(m.ActiveTasks()) +
		m.CompletedTasks() + m.DroppedTasks() + m.AbortedTasks()
	if m.SubmittedTasks() != sum {
		t.Fatalf("submitted %d != lifecycle sum %d", m.SubmittedTasks(), sum)
	}
}

// TestMigratorNoDuplicateActiveExports is the regression test for the
// double-export bug found by FuzzMigratorLifecycle: two submissions of
// the same subtree entry could both activate (the balancer's pending
// skip-set masks this, but the engine must enforce it). The duplicate
// must stay queued while the first export is in flight and then drop
// as stale once the completed export changes the authority.
func TestMigratorNoDuplicateActiveExports(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	first := m.Submit(e.Key, 0, 1, 50, 0)
	dup := m.Submit(e.Key, 0, 2, 50, 0)
	m.Tick(0)
	if first.State != TaskActive {
		t.Fatalf("first task state = %v, want active", first.State)
	}
	if dup.State == TaskActive {
		t.Fatal("duplicate export of the same entry activated concurrently")
	}
	if m.ActiveTasks() != 1 || m.QueuedTasks() != 1 {
		t.Fatalf("active=%d queued=%d, want 1 and 1", m.ActiveTasks(), m.QueuedTasks())
	}
	// Run the first export to completion; the authority flips to rank
	// 1, so the duplicate is dropped as stale on the next activation
	// attempt.
	for tick := int64(1); tick <= first.DoneTick; tick++ {
		m.Tick(tick)
	}
	if first.State != TaskDone {
		t.Fatalf("first task state = %v, want done", first.State)
	}
	if dup.State != TaskDropped {
		t.Fatalf("duplicate task state = %v, want dropped", dup.State)
	}
	if got, _ := p.EntryAt(e.Key); got.Auth != 1 {
		t.Fatalf("authority = %d, want the first export's importer", got.Auth)
	}
	sum := int64(m.QueuedTasks()) + int64(m.ActiveTasks()) +
		m.CompletedTasks() + m.DroppedTasks() + m.AbortedTasks()
	if m.SubmittedTasks() != sum {
		t.Fatalf("submitted %d != lifecycle sum %d", m.SubmittedTasks(), sum)
	}
}

func TestMigratorConcurrencyBound(t *testing.T) {
	tr := namespace.NewTree()
	p := namespace.NewPartition(tr, 0)
	var keys []namespace.FragKey
	for i := 0; i < 5; i++ {
		d, _ := tr.Mkdir(tr.Root(), fmt.Sprintf("d%d", i))
		for j := 0; j < 30; j++ {
			if _, err := tr.Create(d, fmt.Sprintf("f%02d", j), 1); err != nil {
				t.Fatal(err)
			}
		}
		keys = append(keys, p.Carve(d).Key)
	}
	m := newMigrator(p)
	for _, k := range keys {
		m.Submit(k, 0, 1, 1, 0)
	}
	m.Tick(0)
	if m.ActiveTasks() != maxActiveExports {
		t.Fatalf("active = %d, want %d (per-exporter bound)", m.ActiveTasks(), maxActiveExports)
	}
	if m.QueuedTasks() != len(keys)-maxActiveExports {
		t.Fatalf("queued = %d, want %d", m.QueuedTasks(), len(keys)-maxActiveExports)
	}
	// As transfers finish, queued tasks take their slots.
	for tick := int64(1); tick < 20; tick++ {
		m.Tick(tick)
	}
	if m.CompletedTasks() != 5 {
		t.Fatalf("completed = %d, want 5", m.CompletedTasks())
	}
}

func TestMigratorQueueTTLExpiry(t *testing.T) {
	tr := namespace.NewTree()
	p := namespace.NewPartition(tr, 0)
	m := newMigrator(p)
	// Fill every export slot with a transfer that outlasts the queue
	// TTL, so a task queued behind them never activates.
	var big []*ExportTask
	for i := 0; i < maxActiveExports; i++ {
		d := bigDir(t, tr, fmt.Sprintf("big%d", i), migrationRate*queueTTLTicks+1)
		big = append(big, m.Submit(p.Carve(d).Key, 0, 1, 1, 0))
	}
	d := bigDir(t, tr, "small", 10)
	stale := m.Submit(p.Carve(d).Key, 0, 1, 1, 0)
	for tick := int64(0); tick < queueTTLTicks; tick++ {
		m.Tick(tick)
	}
	for _, task := range big {
		// One inode past queueTTLTicks ticks' worth at migrationRate.
		if task.DoneTick != queueTTLTicks+1 {
			t.Fatalf("a %d-inode export is done at tick %d, want %d",
				task.Inodes, task.DoneTick, queueTTLTicks+1)
		}
	}
	if stale.State != TaskQueued || m.ActiveTasks() != maxActiveExports {
		t.Fatalf("before the TTL: stale task %v, %d active; want queued behind %d",
			stale.State, m.ActiveTasks(), maxActiveExports)
	}
	m.Tick(queueTTLTicks)
	if stale.State != TaskDropped {
		t.Fatalf("stale task state = %v, want dropped", stale.State)
	}
	if m.DroppedTasks() != 1 {
		t.Fatal("dropped count")
	}
}

// bigDir makes a directory of n empty files under the root.
func bigDir(t *testing.T, tr *namespace.Tree, name string, n int) *namespace.Inode {
	t.Helper()
	d, err := tr.Mkdir(tr.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if _, err := tr.Create(d, fmt.Sprintf("f%07d", j), 1); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestMigratorDropsStaleAuthority(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	task := m.Submit(e.Key, 0, 1, 1, 0)
	// Authority changes before activation (e.g. another plan moved it).
	p.SetAuth(e.Key, 2)
	m.Tick(0)
	if task.State != TaskDropped {
		t.Fatalf("task with stale From should drop, got %v", task.State)
	}
}

func TestMigratorSelfMigrationDropped(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	task := m.Submit(e.Key, 0, 0, 1, 0)
	m.Tick(0)
	if task.State != TaskDropped {
		t.Fatal("self-migration must be dropped")
	}
}

func TestMigratorOnComplete(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	var got *ExportTask
	m.OnComplete(func(t *ExportTask) { got = t })
	task := m.Submit(e.Key, 0, 1, 1, 0)
	for tick := int64(0); tick <= exportLatencyTicks; tick++ {
		m.Tick(tick)
	}
	if got != task {
		t.Fatal("completion callback not invoked")
	}
}

// TestMigratorInTransit: a subtree is in transit away from its
// exporter while its export is queued, in flight or frozen, and for no
// other rank; it leaves transit once the export completes.
func TestMigratorInTransit(t *testing.T) {
	tr, p, _ := fixture(t)
	d, _ := tr.Lookup("/d")
	e := p.Carve(d)
	m := newMigrator(p)
	task := m.Submit(e.Key, 0, 1, 1, 0)
	if !m.InTransit(e.Key, 0) {
		t.Fatal("queued export not in transit")
	}
	if m.InTransit(e.Key, 3) {
		t.Fatal("in transit away from an unrelated exporter")
	}
	for tick := int64(0); tick < exportLatencyTicks; tick++ {
		if m.Tick(tick); !m.InTransit(e.Key, 0) {
			t.Fatalf("%v export not in transit at tick %d", task.State, tick)
		}
	}
	if m.Tick(exportLatencyTicks); task.State != TaskDone || m.InTransit(e.Key, 0) {
		t.Fatalf("%v export still in transit", task.State)
	}
}

// newMigrator builds a migrator over p whose endpoint hooks accept
// every rank.
func newMigrator(p *namespace.Partition) *Migrator {
	anyRank := func(namespace.MDSID) bool { return true }
	return NewMigrator(p, anyRank, anyRank)
}
