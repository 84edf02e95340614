package balancer

import (
	"testing"

	"repro/internal/namespace"
)

// These tests pin down the CephFS-Vanilla approximation's decision
// edges: the fudge-factor trigger, importer ordering, and the
// smoothed-load view.

func TestVanillaFudgeFactorEdge(t *testing.T) {
	// Distribute the dirs so one MDS is ~8% above average: below the
	// 10% fudge factor, no export.
	v, dirs := buildView(t, 3, 9, 10)
	// 4 dirs on MDS 0, 3 on MDS 1, 2 on MDS 2: loads 40/30/20 visits
	// per epoch -> avg 30, max deviation 33% -> triggers. Then a finer
	// split below.
	assign := []namespace.MDSID{0, 0, 0, 0, 1, 1, 1, 2, 2}
	for i, d := range dirs {
		if assign[i] != 0 {
			e := v.Part.Carve(d)
			v.Part.SetAuth(e.Key, assign[i])
		}
	}
	heatUp(v, dirs, 2)
	NewVanilla().Rebalance(v)
	if v.Mig.QueuedTasks() == 0 {
		t.Fatal("a 33% deviation must trigger vanilla")
	}

	// Rebuild nearly balanced: 3/3/3 -> no trigger.
	v2, dirs2 := buildView(t, 3, 9, 10)
	for i, d := range dirs2 {
		target := namespace.MDSID(i % 3)
		if target != 0 {
			e := v2.Part.Carve(d)
			v2.Part.SetAuth(e.Key, target)
		}
	}
	heatUp(v2, dirs2, 2)
	NewVanilla().Rebalance(v2)
	if v2.Mig.QueuedTasks() != 0 {
		t.Fatal("an even split must not trigger vanilla")
	}
}

func TestVanillaSmoothedTrigger(t *testing.T) {
	// A single-epoch spike on an otherwise balanced cluster is damped
	// by the two-epoch smoothing: with history [even, spike], the
	// smoothed deviation halves.
	v, dirs := buildView(t, 2, 4, 10)
	// Even first epoch.
	for i, d := range dirs {
		if i >= 2 {
			e := v.Part.Carve(d)
			v.Part.SetAuth(e.Key, 1)
		}
	}
	heatUp(v, dirs, 1)
	loads1 := Loads(v)
	if loads1[0] != loads1[1] {
		t.Fatalf("setup not even: %v", loads1)
	}
	// Epoch 2: MDS 0 serves 15% more (a one-epoch spike). The smoothed
	// deviation (~7.5%) stays under the 10% fudge factor.
	for _, d := range dirs {
		for _, f := range d.Children() {
			v.ServeN(f, 1, 1)
		}
	}
	for _, f := range dirs[0].Children()[:6] {
		v.ServeN(f, 1, 1)
	}
	v.EndEpoch()
	NewVanilla().Rebalance(v)
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("a damped one-epoch spike must not trigger")
	}
}

func TestCandidateRootDir(t *testing.T) {
	v, dirs := buildView(t, 2, 1, 3)
	_ = v
	c := Candidate{Dir: dirs[0]}
	if c.RootDir() != dirs[0].Ino {
		t.Fatal("dir candidate root")
	}
	ce := Candidate{Key: namespace.FragKey{Dir: 42}, IsEntry: true}
	if ce.RootDir() != 42 {
		t.Fatal("entry candidate root")
	}
}
