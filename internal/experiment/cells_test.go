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
			_, err := runCells("demo", Options{Seed: 42, MaxTicks: 100}, cells)
			if err == nil || !strings.HasPrefix(err.Error(), "experiment demo: cell 1 ") || !strings.Contains(err.Error(), "-1") {
				t.Fatalf("GOMAXPROCS=%d: error %v, want cell 1's (MDS -1) wrapped with the id", procs, err)
			}
		}
	}
	runs, err := runCells("demo", Options{Seed: 42, MaxTicks: 100}, []cell{ok, ok})
	if err != nil || len(runs) != 2 || !runs[1].Done() {
		t.Fatalf("two good cells: runs %d, err %v", len(runs), err)
	}
	ok.mustFinish = true
	_, err = runCells("demo", Options{Seed: 42, MaxTicks: 1}, []cell{ok})
	if err == nil || !strings.Contains(err.Error(), "did not finish in 1 ticks") {
		t.Fatalf("unfinished must-finish cell: error %v", err)
	}
}
