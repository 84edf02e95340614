package balancer

import (
	"testing"

	"repro/internal/mds"
)

func TestEnvHelpers(t *testing.T) {
	e := Env{WhoAmI: 1, Loads: []float64{100, 300}, Total: 400}
	if e.MyLoad() != 300 {
		t.Fatalf("MyLoad = %v", e.MyLoad())
	}
	if e.Mean() != 200 {
		t.Fatalf("Mean = %v", e.Mean())
	}
	empty := Env{WhoAmI: 5}
	if empty.MyLoad() != 0 || empty.Mean() != 0 {
		t.Fatal("out-of-range env must be zero")
	}
}

func TestGreedySpillPolicyMatchesShape(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2) // all load on rank 0, neighbour 1 idle
	b := NewMantle(GreedySpill())
	b.Rebalance(v)
	if v.Mig.QueuedTasks() == 0 {
		t.Fatal("greedyspill-via-mantle did not spill")
	}
	// Everything must target rank 1 (the neighbour).
	if queued, _ := v.Mig.TasksFor(0); queued == 0 {
		t.Fatal("no pending exports from rank 0")
	}
}

func TestSpreadEvenProportions(t *testing.T) {
	p := SpreadEven(0.1)
	env := Env{
		WhoAmI: 0,
		Loads:  []float64{1000, 100, 300, 0},
		Total:  1400,
	}
	if !p.When(env) {
		t.Fatal("should trigger above mean")
	}
	amount := p.HowMuch(env)
	if amount != 1000-350 {
		t.Fatalf("amount = %v", amount)
	}
	targets := p.Where(env, amount)
	sum := 0.0
	for j, v := range targets {
		if j == 0 && v != 0 {
			t.Fatal("self target must be zero")
		}
		sum += v
	}
	if diff := sum - amount; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("targets sum %v != amount %v", sum, amount)
	}
	// The emptiest MDS (rank 3) gets the largest share.
	if targets[3] <= targets[2] {
		t.Fatalf("shares not headroom-proportional: %v", targets)
	}
}

func TestNilCallbacksNoop(t *testing.T) {
	v, dirs := buildView(t, 3, 4, 10)
	heatUp(v, dirs, 2)
	b := NewMantle(Policy{PolicyName: "empty"})
	b.Rebalance(v)
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("policy with nil callbacks must not migrate")
	}
}

func TestWhereNilCancels(t *testing.T) {
	v, dirs := buildView(t, 3, 4, 10)
	heatUp(v, dirs, 2)
	b := NewMantle(Policy{
		PolicyName: "cancel",
		When:       func(Env) bool { return true },
		HowMuch:    func(e Env) float64 { return e.MyLoad() / 2 },
		Where:      func(Env, float64) []float64 { return nil },
	})
	b.Rebalance(v)
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("nil where must cancel the migration")
	}
}

func TestMantleName(t *testing.T) {
	if NewMantle(GreedySpill()).Name() != "Mantle:GreedySpill" {
		t.Fatal("name")
	}
	if NewMantle(Policy{}).Name() != "Mantle" {
		t.Fatal("anonymous name")
	}
	if NewGreedySpill().Name() != "GreedySpill" {
		t.Fatal("the paper's baseline keeps the figures' name")
	}
}

// TestMantleSkipsDownAndDrainingRanks: the adaptor evaluates policies
// over the importable ranks only. GreedySpill's ring neighbour is the
// next importable rank, and a draining rank — which still serves, so
// it has load — is never evaluated as an exporter (the drain pump owns
// its exports).
func TestMantleSkipsDownAndDrainingRanks(t *testing.T) {
	queued := func(m *mds.Migrator) []*mds.ExportTask {
		var out []*mds.ExportTask
		m.ForEachQueued(func(t *mds.ExportTask) { out = append(out, t) })
		return out
	}

	// Rank 0 loaded, its neighbour rank 1 down: the spill goes to 2.
	v, dirs := buildView(t, 4, 6, 10)
	heatUp(v, dirs, 2)
	v.Servers[1].Crash()
	NewGreedySpill().Rebalance(v)
	tasks := queued(v.Mig)
	if len(tasks) == 0 {
		t.Fatal("rank 0 did not spill past its down neighbour")
	}
	for _, task := range tasks {
		if task.From != 0 || task.To != 2 {
			t.Fatalf("export %d -> %d, want 0 -> 2 (next importable rank)", task.From, task.To)
		}
	}

	// Rank 0 loaded but draining, everything else idle: no policy runs
	// on it, and nobody names it as a target.
	v, dirs = buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2)
	v.Servers[0].StartDrain()
	for _, p := range []Policy{GreedySpill(), SpreadEven(0.1)} {
		evaluated := false
		when := p.When
		p.When = func(e Env) bool {
			evaluated = evaluated || e.MyLoad() > 0
			return when(e)
		}
		NewMantle(p).Rebalance(v)
		if evaluated {
			t.Fatalf("%s: evaluated on the draining rank", p.PolicyName)
		}
		if n := len(queued(v.Mig)); n != 0 {
			t.Fatalf("%s: %d exports planned around a draining rank", p.PolicyName, n)
		}
	}
}
