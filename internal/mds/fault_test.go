package mds

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
)

func TestServerCrashRejoinLifecycle(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 100, 4, 0.5)
	e := p.GoverningEntry(files[0])
	s.BeginTick()
	if !s.Serve(e, files[0], 0) {
		t.Fatal("healthy server must serve")
	}
	s.Crash()
	if s.Up() {
		t.Fatal("crashed server must report down")
	}
	if s.Serve(e, files[1], 0) {
		t.Fatal("crashed server must not serve residual budget")
	}
	s.BeginTick()
	if s.HasBudget() {
		t.Fatal("down server must get no budget at BeginTick")
	}
	// Crash is idempotent.
	s.Crash()
	if s.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", s.Crashes())
	}

	s.Rejoin()
	if !s.Up() {
		t.Fatal("rejoined server must be up")
	}
	s.BeginTick()
	if !s.Serve(e, files[2], 1) {
		t.Fatal("rejoined server must serve")
	}
	// Rejoin is idempotent.
	s.Rejoin()
	if s.Crashes() != 1 {
		t.Fatalf("crashes after rejoin = %d", s.Crashes())
	}
}

func TestServerRejoinInvalidatesStats(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 1000, 4, 0.5)
	e := p.GoverningEntry(files[0])
	s.BeginTick()
	for i := 0; i < 10; i++ {
		s.Serve(e, files[i], 0)
	}
	s.EndEpoch(10)
	if s.HeatOfKey(e.Key) == 0 || s.CurrentLoad() == 0 {
		t.Fatal("fixture must accumulate stats")
	}
	s.Crash()
	s.Rejoin()
	if s.HeatOfKey(e.Key) != 0 {
		t.Fatal("heat must be invalidated on rejoin")
	}
	if s.HeatOfDir(files[0].Parent) != 0 {
		t.Fatal("dir heat must be invalidated on rejoin")
	}
	if got := s.Collector().RecentKey(e.Key, 0, 1); !got.IsZero() {
		t.Fatal("trace must be invalidated on rejoin")
	}
	if s.CurrentLoad() != 0 || len(s.LoadHistory()) != 0 {
		t.Fatal("load history must be invalidated on rejoin")
	}
	// Ops totals are lifetime counters and survive.
	if s.OpsTotal() != 10 {
		t.Fatalf("ops total = %d", s.OpsTotal())
	}
}

func TestSetCapacityReportsClamp(t *testing.T) {
	s := NewServer(0, 100, 4, 0.5)
	if applied, clamped := s.SetCapacity(50); applied != 50 || clamped {
		t.Fatalf("SetCapacity(50) = %d, %v", applied, clamped)
	}
	for _, bad := range []int{0, -1, -100} {
		applied, clamped := s.SetCapacity(bad)
		if applied != 1 || !clamped {
			t.Fatalf("SetCapacity(%d) = %d, %v; want 1, true", bad, applied, clamped)
		}
		if s.Capacity != 1 {
			t.Fatalf("capacity after clamp = %d", s.Capacity)
		}
	}
}

// abortFixture builds a partition with two carved subtrees and a
// migrator whose ValidRank hook tracks a mutable down-set.
func abortFixture(t *testing.T) (*namespace.Partition, *Migrator, []namespace.FragKey, map[namespace.MDSID]bool) {
	t.Helper()
	tr := namespace.NewTree()
	p := namespace.NewPartition(tr, 0)
	var keys []namespace.FragKey
	for _, name := range []string{"a", "b"} {
		d, err := tr.Mkdir(tr.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 40; j++ {
			if _, err := tr.Create(d, fmt.Sprintf("%s%02d", name, j), 1); err != nil {
				t.Fatal(err)
			}
		}
		keys = append(keys, p.Carve(d).Key)
	}
	down := make(map[namespace.MDSID]bool)
	m := NewMigrator(p, 10, 2, 100)
	m.ValidRank = func(r namespace.MDSID) bool { return !down[r] }
	return p, m, keys, down
}

func TestMigratorAbortOnExporterCrash(t *testing.T) {
	p, m, keys, _ := abortFixture(t)
	task := m.Submit(keys[0], 0, 1, 50, 0)
	m.Tick(0)
	if task.State != TaskActive {
		t.Fatalf("state = %v, want active", task.State)
	}
	// Exporter 0 dies mid-flight: the importer takes over the subtree.
	if got := m.AbortRank(0); got != 1 {
		t.Fatalf("aborted = %d, want 1", got)
	}
	if task.State != TaskAborted {
		t.Fatalf("state = %v, want aborted", task.State)
	}
	if e, _ := p.EntryAt(keys[0]); e.Auth != 1 {
		t.Fatalf("authority = %d, want importer 1 (surviving side)", e.Auth)
	}
	if m.IsFrozen(keys[0]) {
		t.Fatal("aborted subtree must unfreeze")
	}
	if m.ActiveTasks() != 0 || m.AbortedTasks() != 1 {
		t.Fatalf("active = %d aborted = %d", m.ActiveTasks(), m.AbortedTasks())
	}
	if m.DroppedTasks() != 0 {
		t.Fatal("aborts must not be accounted as drops")
	}
}

func TestMigratorAbortOnImporterCrash(t *testing.T) {
	p, m, keys, _ := abortFixture(t)
	task := m.Submit(keys[0], 0, 1, 50, 0)
	m.Tick(0)
	if task.State != TaskActive {
		t.Fatalf("state = %v, want active", task.State)
	}
	// Importer 1 dies mid-flight: authority stays with the exporter.
	if got := m.AbortRank(1); got != 1 {
		t.Fatalf("aborted = %d, want 1", got)
	}
	if task.State != TaskAborted {
		t.Fatalf("state = %v, want aborted", task.State)
	}
	if e, _ := p.EntryAt(keys[0]); e.Auth != 0 {
		t.Fatalf("authority = %d, want exporter 0 (surviving side)", e.Auth)
	}
	if m.AbortedTasks() != 1 || m.CompletedTasks() != 0 {
		t.Fatal("abort accounting")
	}
	// Completing later ticks must not resurrect the task.
	for tick := int64(1); tick < 10; tick++ {
		m.Tick(tick)
	}
	if m.CompletedTasks() != 0 {
		t.Fatal("aborted task must never complete")
	}
}

func TestMigratorAbortQueuedTasks(t *testing.T) {
	_, m, keys, _ := abortFixture(t)
	t0 := m.Submit(keys[0], 0, 1, 50, 0)
	t1 := m.Submit(keys[1], 2, 1, 50, 0)
	// Importer 1 dies before activation: both queued tasks abort.
	if got := m.AbortRank(1); got != 2 {
		t.Fatalf("aborted = %d, want 2", got)
	}
	if t0.State != TaskAborted || t1.State != TaskAborted {
		t.Fatal("queued tasks involving the dead rank must abort")
	}
	if m.QueuedTasks() != 0 {
		t.Fatal("queue must be purged")
	}
}

// TestMigratorAbortExporterCrashImporterDraining is the drain/crash
// composition at the migrator level: the export is already in flight
// when the importer stops being a valid placement target (it started
// draining), and then the exporter dies. The abort must still roll
// authority to the draining importer — the data already lives there,
// and its own drain re-exports the subtree afterwards. AbortRank must
// not consult ValidRank for the surviving side.
func TestMigratorAbortExporterCrashImporterDraining(t *testing.T) {
	p, m, keys, down := abortFixture(t)
	task := m.Submit(keys[0], 0, 1, 50, 0)
	m.Tick(0)
	if task.State != TaskActive {
		t.Fatalf("state = %v, want active", task.State)
	}
	// Importer 1 starts draining mid-flight: no longer a valid target
	// for new placements, but still the surviving side of this export.
	down[1] = true
	if got := m.AbortRank(0); got != 1 {
		t.Fatalf("aborted = %d, want 1", got)
	}
	if task.State != TaskAborted {
		t.Fatalf("state = %v, want aborted", task.State)
	}
	if e, _ := p.EntryAt(keys[0]); e.Auth != 1 {
		t.Fatalf("authority = %d, want the draining importer 1 (it holds the data)", e.Auth)
	}
	if m.IsFrozen(keys[0]) {
		t.Fatal("aborted subtree must unfreeze so the drain can re-export it")
	}
	if m.AbortedTasks() != 1 || m.DroppedTasks() != 0 {
		t.Fatalf("aborted = %d dropped = %d", m.AbortedTasks(), m.DroppedTasks())
	}
}

func TestMigratorDropsInvalidImporterAtActivation(t *testing.T) {
	p, m, keys, down := abortFixture(t)
	task := m.Submit(keys[0], 0, 1, 50, 0)
	down[1] = true // importer crashes between submit and activation
	m.Tick(0)
	if task.State != TaskDropped {
		t.Fatalf("state = %v, want dropped (invalid importer)", task.State)
	}
	if m.ActiveTasks() != 0 || m.DroppedTasks() != 1 {
		t.Fatalf("active = %d dropped = %d", m.ActiveTasks(), m.DroppedTasks())
	}
	if e, _ := p.EntryAt(keys[0]); e.Auth != 0 {
		t.Fatal("authority must not move")
	}
}

func TestMigratorDropsNegativeImporterRank(t *testing.T) {
	_, m, keys, _ := abortFixture(t)
	m.ValidRank = nil // even without a hook, negative ranks are invalid
	task := m.Submit(keys[0], 0, -3, 50, 0)
	m.Tick(0)
	if task.State != TaskDropped {
		t.Fatalf("state = %v, want dropped (negative rank)", task.State)
	}
}
