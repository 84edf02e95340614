package balancer

import (
	"testing"

	"repro/internal/mds"
	"repro/internal/obs"
)

// queuedTasks lists the migrator's queued exports in queue order.
func queuedTasks(m *mds.Migrator) []*mds.ExportTask {
	var out []*mds.ExportTask
	m.ForEachQueued(func(t *mds.ExportTask) { out = append(out, t) })
	return out
}

func TestGreedySpillSpillsToIdleNeighbour(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2)
	NewGreedySpill().Rebalance(v)
	if v.Mig.QueuedTasks()+v.Mig.ActiveTasks() == 0 {
		t.Fatal("greedyspill did not spill to the idle neighbour")
	}
}

// TestGreedySpillPolicyMatchesShape: every pick of a spill goes to the
// one ring neighbour.
func TestGreedySpillPolicyMatchesShape(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2) // all load on rank 0, neighbour 1 idle
	NewGreedySpill().Rebalance(v)
	tasks := queuedTasks(v.Mig)
	if len(tasks) == 0 {
		t.Fatal("no pending exports from rank 0")
	}
	for _, task := range tasks {
		if task.From != 0 || task.To != 1 {
			t.Fatalf("export %d -> %d, want 0 -> 1 (the ring neighbour)", task.From, task.To)
		}
	}
}

func TestGreedySpillBusyNeighbourNoSpill(t *testing.T) {
	v, dirs := buildView(t, 2, 4, 10)
	// Both MDSs have load: d0,d1 on MDS0; d2,d3 on MDS1.
	for i, d := range dirs {
		if i >= 2 {
			e := v.Part.Carve(d)
			v.Part.SetAuth(e.Key, 1)
		}
	}
	heatUp(v, dirs, 2)
	NewGreedySpill().Rebalance(v)
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("greedyspill must only spill to an idle neighbour")
	}
}

func TestGreedySpillRingNeighbour(t *testing.T) {
	// Load on the LAST rank: its neighbour wraps to rank 0.
	v, dirs := buildView(t, 3, 4, 10)
	for _, d := range dirs {
		e := v.Part.Carve(d)
		v.Part.SetAuth(e.Key, 2)
	}
	heatUp(v, dirs, 2)
	NewGreedySpill().Rebalance(v)
	if queued, _ := v.Mig.TasksFor(2); queued == 0 {
		t.Fatal("rank 2 should spill")
	}
}

func TestGreedySpillSingleMDSNoop(t *testing.T) {
	v, dirs := buildView(t, 1, 3, 10)
	heatUp(v, dirs, 2)
	NewGreedySpill().Rebalance(v)
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("single-MDS cluster cannot spill")
	}
}

// TestGreedySpillSkipsDownAndDrainingRanks: the ring is the importable
// ranks only. The ring neighbour is the next importable rank, and a
// draining rank — which still serves, so it has load — never spills
// (the drain pump owns its exports).
func TestGreedySpillSkipsDownAndDrainingRanks(t *testing.T) {
	// Rank 0 loaded, its neighbour rank 1 down: the spill goes to 2.
	v, dirs := buildView(t, 4, 6, 10)
	heatUp(v, dirs, 2)
	v.Servers[1].Crash()
	NewGreedySpill().Rebalance(v)
	tasks := queuedTasks(v.Mig)
	if len(tasks) == 0 {
		t.Fatal("rank 0 did not spill past its down neighbour")
	}
	for _, task := range tasks {
		if task.From != 0 || task.To != 2 {
			t.Fatalf("export %d -> %d, want 0 -> 2 (next importable rank)", task.From, task.To)
		}
	}

	// Rank 0 loaded but draining, everything else idle: it does not
	// fire, and nobody names it as a target.
	v, dirs = buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2)
	v.Servers[0].StartDrain()
	ring := obs.NewRing(8)
	b := NewGreedySpill()
	b.SetBus(obs.NewBus(ring))
	b.Rebalance(v)
	if n := len(ring.OfType(obs.EvTrigger)); n != 0 {
		t.Fatalf("%d triggers fired around a draining rank", n)
	}
	if n := len(queuedTasks(v.Mig)); n != 0 {
		t.Fatalf("%d exports planned around a draining rank", n)
	}
}

// TestGreedySpillTriggerEvent: a spill emits one trigger event naming
// the balancer, the exporter, its load and half of it as the amount.
func TestGreedySpillTriggerEvent(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2)
	ring := obs.NewRing(8)
	b := NewGreedySpill()
	b.SetBus(obs.NewBus(ring))
	b.Rebalance(v)
	evs := ring.OfType(obs.EvTrigger)
	if len(evs) != 1 {
		t.Fatalf("%d trigger events, want 1 (rank 0 spills)", len(evs))
	}
	e := evs[0]
	load := v.Server(0).CurrentLoad()
	want := obs.F{"balancer": "GreedySpill", "from": 0, "amount": load / 2, "load": load, "fired": true}
	if e.Tick != v.Tick() || len(e.Fields) != len(want) {
		t.Fatalf("trigger %v, want tick %d and fields %v", e, v.Tick(), want)
	}
	for k, w := range want {
		if e.Fields[k] != w {
			t.Fatalf("trigger field %s = %v (%T), want %v (%T)", k, e.Fields[k], e.Fields[k], w, w)
		}
	}
	if b.Name() != "GreedySpill" {
		t.Fatalf("Name() = %q, the figures' name is GreedySpill", b.Name())
	}
}
