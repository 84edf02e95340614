package core

import (
	"fmt"
	"testing"

	"repro/internal/balancer"
	"repro/internal/namespace"
	"repro/internal/simtest"
)

// buildView makes a 3-MDS view over /data with nDirs x filesPer files,
// all governed by MDS 0.
func buildView(t testing.TB, nDirs, filesPer int) (*simtest.View, []*namespace.Inode) {
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
	return simtest.New(tree, 3), dirs
}

func analyzerFor(v *simtest.View) *Analyzer { return NewAnalyzer(v.EpochTicksV) }

func totalLoad(cands []balancer.Candidate) float64 {
	s := 0.0
	for _, c := range cands {
		s += c.Load
	}
	return s
}

func TestSelectorPicksHotDirsToMatchAmount(t *testing.T) {
	v, dirs := buildView(t, 10, 30)
	// Give each dir a steady re-visit load of ~3 ops/sec.
	for e := int64(0); e < 3; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 1, e)
			}
		}
		v.EndEpoch()
	}
	// Total visible load ~30 ops/sec over 10 dirs; ask for ~9 (3 dirs).
	picked := Select(v, analyzerFor(v), 0, 9)
	if len(picked) == 0 {
		t.Fatal("no selection")
	}
	got := totalLoad(picked)
	if got < 5 || got > 13 {
		t.Fatalf("selected %v ops/sec for amount 9 (picks=%d)", got, len(picked))
	}
	for _, c := range picked {
		if c.IsEntry {
			t.Fatal("fresh namespace should yield carveable dir candidates")
		}
	}
}

func TestSelectorPathOneExactMatch(t *testing.T) {
	v, dirs := buildView(t, 5, 30)
	// dirs[0] is twice as hot as the rest; every dir is touched, so no
	// spatial credit muddies the indices.
	for e := int64(0); e < 3; e++ {
		for i, d := range dirs {
			per := 1
			if i == 0 {
				per = 2
			}
			for _, f := range d.Children() {
				v.ServeN(f, per, e)
			}
		}
		v.EndEpoch()
	}
	// Ask for exactly dirs[0]'s share of the served load (2 of 6
	// parts): after the proportional conversion this equals dirs[0]'s
	// migration index, so path 1 must return it alone.
	served := v.Servers[0].CurrentLoad()
	picked := Select(v, analyzerFor(v), 0, served*2/6)
	if len(picked) != 1 {
		t.Fatalf("want single-subtree match, got %d picks: %v", len(picked), picked)
	}
	if picked[0].RootDir() != dirs[0].Ino {
		t.Fatalf("picked subtree at dir %d, want %d", picked[0].RootDir(), dirs[0].Ino)
	}
}

func TestSelectorFragSplitsOversizedFlatDir(t *testing.T) {
	v, dirs := buildView(t, 1, 200)
	// One flat dir carries all the load.
	for e := int64(0); e < 3; e++ {
		for _, f := range dirs[0].Children() {
			v.ServeN(f, 1, e)
		}
		v.EndEpoch()
	}
	// The dir's index is ~20 ops/sec; ask for half.
	picked := Select(v, analyzerFor(v), 0, 10)
	if len(picked) != 1 {
		t.Fatalf("want one fragment, got %d", len(picked))
	}
	c := picked[0]
	if !c.IsEntry || c.Key.Frag.IsWhole() {
		t.Fatalf("want a fragment entry, got %+v", c)
	}
	if c.Key.Dir != dirs[0].Ino {
		t.Fatal("fragment of the wrong dir")
	}
	if c.Load < 5 || c.Load > 15 {
		t.Fatalf("fragment load estimate %v for amount 10", c.Load)
	}
	// The partition now contains split entries for the dir.
	if len(v.Part.EntriesAt(dirs[0].Ino)) < 2 {
		t.Fatal("dirfrag split must leave fragment entries")
	}
}

func TestSelectorKeepsDiffuseScanRegionWhole(t *testing.T) {
	// A scan-front region: most load anticipated across many unvisited
	// dirs. The selector must NOT shatter it into dust; it should
	// produce a fragment of the region instead.
	v, dirs := buildView(t, 50, 20)
	// Scan the first two dirs only (the front); 48 dirs untouched.
	for e := int64(0); e < 2; e++ {
		for _, d := range dirs[e*1 : e*1+2] {
			for _, f := range d.Children() {
				v.ServeN(f, 1, e)
			}
		}
		v.EndEpoch()
	}
	an := analyzerFor(v)
	col := v.Servers[0].Collector()
	region, _ := v.Part.Tree().Lookup("/data")
	regionIdx := an.ForDir(col, v.EpochV, region).MIndex
	if regionIdx <= 0 {
		t.Fatal("scan region must have positive index")
	}
	picked := Select(v, an, 0, regionIdx/2)
	if len(picked) == 0 {
		t.Fatal("no selection for scan region")
	}
	if len(picked) > maxPicks {
		t.Fatalf("selection shattered into %d pieces", len(picked))
	}
	got := totalLoad(picked)
	if got < regionIdx/4 || got > regionIdx {
		t.Fatalf("selected %v for amount %v", got, regionIdx/2)
	}
}

func TestSelectorSkipsPendingSubtrees(t *testing.T) {
	v, dirs := buildView(t, 4, 30)
	for e := int64(0); e < 2; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 1, e)
			}
		}
		v.EndEpoch()
	}
	// Mark dirs[0] as already being exported.
	e := v.Part.Carve(dirs[0])
	v.Mig.Submit(e.Key, 0, 1, 1, 0)
	picked := Select(v, analyzerFor(v), 0, 3)
	for _, c := range picked {
		if c.RootDir() == dirs[0].Ino {
			t.Fatal("selected a subtree already pending export")
		}
	}
}

func TestSelectorConcentratedRegionRefines(t *testing.T) {
	// When the load concentrates in child directories (a hot-set
	// workload), enumeration must descend to them so path 1/3 can pick
	// whole dirs rather than frag-splitting the parent region.
	v, dirs := buildView(t, 6, 20)
	for e := int64(0); e < 3; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 2, e)
			}
		}
		v.EndEpoch()
	}
	served := v.Servers[0].CurrentLoad()
	picked := Select(v, analyzerFor(v), 0, served/3)
	if len(picked) == 0 {
		t.Fatal("no selection")
	}
	for _, c := range picked {
		if c.IsEntry && !c.Key.Frag.IsWhole() {
			t.Fatalf("hot-set selection should take whole dirs, got fragment %v", c.Key)
		}
		// Every pick roots at one of the six leaf dirs, not /data.
		found := false
		for _, d := range dirs {
			if c.RootDir() == d.Ino {
				found = true
			}
		}
		if !found {
			t.Fatalf("pick rooted at %d is not a leaf dir", c.RootDir())
		}
	}
}

func TestSelectorDiffuseRegionFragSplits(t *testing.T) {
	// A region whose predicted load is spread over many untouched dirs
	// (a young scan) is NOT shattered into per-dir dust: the selection
	// is a hash fragment of the region.
	v, dirs := buildView(t, 60, 10)
	// Touch only the first dir: 59 siblings untouched, so the region's
	// index is dominated by anticipated (diffuse) load.
	for e := int64(0); e < 2; e++ {
		for _, f := range dirs[0].Children() {
			v.ServeN(f, 3, e)
		}
		v.EndEpoch()
	}
	served := v.Servers[0].CurrentLoad()
	picked := Select(v, analyzerFor(v), 0, served/2)
	if len(picked) == 0 {
		t.Fatal("no selection")
	}
	fragPicks := 0
	for _, c := range picked {
		if c.IsEntry && !c.Key.Frag.IsWhole() {
			fragPicks++
		}
	}
	if fragPicks == 0 && len(picked) > maxPicks/2 {
		t.Fatalf("diffuse region shattered into %d pieces without frag-splitting", len(picked))
	}
}

func TestSelectorZeroAmount(t *testing.T) {
	v, _ := buildView(t, 2, 5)
	if picked := Select(v, analyzerFor(v), 0, 0); picked != nil {
		t.Fatal("zero amount must select nothing")
	}
	if picked := Select(v, analyzerFor(v), 0, -5); picked != nil {
		t.Fatal("negative amount must select nothing")
	}
}

func TestSelectorNoTrafficNoSelection(t *testing.T) {
	v, _ := buildView(t, 3, 10)
	if picked := Select(v, analyzerFor(v), 0, 100); len(picked) != 0 {
		t.Fatalf("idle namespace produced selection: %v", picked)
	}
}

func TestSelectorSaturationRescale(t *testing.T) {
	// When the exporter's served load is far below the requested
	// amount, the request is interpreted proportionally rather than
	// absolutely, so the selection must not exceed everything visible.
	v, dirs := buildView(t, 10, 20)
	for e := int64(0); e < 2; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 1, e)
			}
		}
		v.EndEpoch()
	}
	// Served load is ~20 ops/sec; ask for 10 (half): should pick about
	// half the dirs, not all of them.
	picked := Select(v, analyzerFor(v), 0, 10)
	if len(picked) == 0 || len(picked) >= 10 {
		t.Fatalf("proportional selection picked %d of 10 dirs", len(picked))
	}
}
