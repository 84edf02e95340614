package main

import (
	"reflect"
	"testing"
)

func TestFastestTakesShortestWindow(t *testing.T) {
	if got := fastest([]int64{130, 90, 95}); got != 90 {
		t.Fatalf("fastest = %d, want 90", got)
	}
	if got := fastest([]int64{7}); got != 7 {
		t.Fatalf("single repeat: fastest = %d, want 7", got)
	}
	if got := fastest(nil); got != 0 {
		t.Fatalf("fastest(nil) = %d", got)
	}
}

// Two seeds, two repeats each: host time is the faster repeat of each
// seed, summed; model outcomes are averaged over the seeds; set-up and
// heap are medians over every run.
func TestEndToEndCombinesSeeds(t *testing.T) {
	run := func(windowNs, setupNs int64, ops, iops float64, heap uint64) *runResult {
		return &runResult{NewNs: setupNs, Slices: []int64{windowNs / 2, windowNs / 2}, Ops: ops, IOPS: iops, LatMean: iops / 1000, LiveHeap: heap}
	}
	wr := &workloadResult{Spreads: map[string]spread{}, Groups: []*seedGroup{
		{Seed: 1, Repeats: []*runResult{run(4e9, 10e6, 1000, 10, 1e6), run(2e9, 30e6, 1000, 10, 3e6)}},
		{Seed: 2, Repeats: []*runResult{run(2e9, 20e6, 3000, 30, 2e6), run(6e9, 40e6, 3000, 30, 4e6)}},
	}}
	wr.endToEnd()
	want := values{
		"setup_s":              0.025,
		"sim_ops_per_s":        (1000 + 3000) / (2.0 + 2.0),
		"live_heap_mb":         2.5,
		"model_iops":           20,
		"model_if_mean":        0,
		"model_lat_mean_ticks": 0.02,
	}
	if !reflect.DeepEqual(wr.E2E, want) {
		t.Fatalf("E2E = %v, want %v", wr.E2E, want)
	}
	if s := wr.Spreads["sim_ops_per_s"]; s.Min != 250 || s.Max != 1500 {
		t.Fatalf("per-repeat spread = %+v", s)
	}
}

func TestSubSeedsAreDistinctAndStartAtTheSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		seen[subSeed(42, i)] = true
	}
	if subSeed(42, 0) != 42 || len(seen) != 8 || subSeed(42, 1) == subSeed(43, 1) {
		t.Fatalf("subSeed: %v", seen)
	}
}

func TestSpreadAndRatio(t *testing.T) {
	s := spreadOf([]float64{4, 1, 3, 2})
	if s != (spread{Median: 2.5, Min: 1, Max: 4}) {
		t.Fatalf("spreadOf = %+v", s)
	}
	if got := spreadOf(nil); got != (spread{}) {
		t.Fatalf("spread of nothing = %+v", got)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Fatal("ratio")
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "step", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 1, Name: "rebalance", StartNs: 20, EndNs: 25},
		{ID: 3, Parent: 0, Name: "step", StartNs: 50, EndNs: 90},
		// Overlaps span 3 (counted once) and sticks out of the parent
		// (clipped): covers [80, 100) of which [90, 100) is new.
		{ID: 4, Parent: 0, Name: "late", StartNs: 80, EndNs: 120},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (30 + 40 + 10), // run: children cover [10,40) [50,90) [90,100)
		30 - 5,               // first step minus its rebalance
		5,
		40,
		40,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsAndSelects(t *testing.T) {
	tr := newTracer("w")
	window := tr.begin("window")
	for i := 0; i < 3; i++ {
		step := tr.begin("cluster.Step")
		if i == 1 {
			tr.end(tr.begin("balancer.Rebalance"))
		}
		tr.end(step)
	}
	tr.end(window)
	tr.end(tr.begin("balancer.Rebalance")) // outside the window

	if got := len(tr.within(window, "cluster.Step")); got != 3 {
		t.Fatalf("steps within window = %d, want 3", got)
	}
	reb := tr.within(window, "balancer.Rebalance")
	if len(reb) != 1 || tr.spans[reb[0].Parent].Name != "cluster.Step" {
		t.Fatalf("rebalances within window = %+v", reb)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs || s.Workload != "w" {
			t.Fatalf("bad span %+v", s)
		}
	}

	calls := 0
	perCall := tr.blocks("layer", 2500, 1024, func(lo, hi int) { calls += hi - lo })
	if calls != 2500 || perCall < 0 {
		t.Fatalf("blocks covered %d calls (%.1f ns each), want 2500", calls, perCall)
	}
	blocks := tr.within(-2, "layer") // no such ancestor
	if len(blocks) != 0 {
		t.Fatalf("within(-2) = %d spans", len(blocks))
	}
	var total int64
	for _, s := range tr.spans {
		if s.Name == "layer" {
			total += s.Calls
		}
	}
	if total != 2500 {
		t.Fatalf("block spans carry %d calls, want 2500", total)
	}
}
