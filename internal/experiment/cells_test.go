package experiment

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// TestRunCellsReturnsLowestIndexError: with two failing cells the error
// is cell 1's, wrapped with the experiment id and the cell index,
// whichever worker finished first.
func TestRunCellsReturnsLowestIndexError(t *testing.T) {
	ok := cell{bal: "Lunule", shape: cluster.Config{Clients: 2}, gen: func() workload.Generator {
		return workload.NewZipf(workload.ZipfConfig{OpsPerClient: 200})
	}}
	bad := func(mds int) cell {
		cl := ok
		cl.shape.MDS = mds
		return cl
	}
	cells := []cell{ok, bad(-1), ok, bad(-3), ok}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			_, err := runCells("demo", Options{Seed: 42, MaxTicks: 100}, cells, nil)
			if err == nil || !strings.HasPrefix(err.Error(), "experiment demo: cell 1 ") || !strings.Contains(err.Error(), "-1") {
				t.Fatalf("GOMAXPROCS=%d: error %v, want cell 1's (MDS -1) wrapped with the id", procs, err)
			}
		}
	}
	runs, err := runCells("demo", Options{Seed: 42, MaxTicks: 100}, []cell{ok, ok}, nil)
	if err != nil || len(runs) != 2 || len(runs[1].Metrics().JCT) != 2 { // both clients finished
		t.Fatalf("two good cells: runs %d, err %v", len(runs), err)
	}
	ok.mustFinish = true
	_, err = runCells("demo", Options{Seed: 42, MaxTicks: 1}, []cell{ok}, nil)
	if err == nil || !strings.Contains(err.Error(), "did not finish in 1 ticks") {
		t.Fatalf("unfinished must-finish cell: error %v", err)
	}
}

// TestRunCellsDropsClusters: a finished run keeps its Recorder and its
// evaluated rows, not its cluster, so four finished runs retain less
// heap than one live cluster of the same cell.
func TestRunCellsDropsClusters(t *testing.T) {
	md := cell{bal: "Lunule", shape: cluster.Config{Clients: 8}, gen: func() workload.Generator {
		return workload.NewMD(workload.MDConfig{CreatesPerClient: 6000})
	}}
	opt := Options{Seed: 42, MaxTicks: 4000}
	// A column that reads the namespace, so rows come from the live tree.
	e := &entry{cols: []column[*run]{num("inodes", ".inodes", fi, inodes)}}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := heap()
	runs, err := runCells("demo", opt, []cell{md, md, md, md}, []*entry{e})
	if err != nil {
		t.Fatal(err)
	}
	retained := heap() - base
	cfg := md.shape
	cfg.Seed, cfg.Balancer, cfg.Workload = opt.Seed, MakeBalancer(md.bal), md.gen()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntilDone(opt.MaxTicks)
	live := heap() - base - retained
	for i, r := range runs {
		if len(r.Metrics().JCT) != 8 || r.rows[e].Values[".inodes"] != float64(c.Tree().NumInodes()) {
			t.Fatalf("run %d: %d JCTs, %v inodes; want 8 and the live cluster's %d", i,
				len(r.Metrics().JCT), r.rows[e].Values[".inodes"], c.Tree().NumInodes())
		}
	}
	t.Logf("4 finished runs retain %.2f MB; one live cluster holds %.2f MB", float64(retained)/1e6, float64(live)/1e6)
	if retained >= live {
		t.Fatalf("4 finished runs retain %d B, not less than one live cluster's %d B", retained, live)
	}
	runtime.KeepAlive(runs)
	runtime.KeepAlive(c)
}
