package experiment

import (
	"math"
	"testing"
)

// quick runs an experiment at reduced scale for tests.
func quick(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, Options{Scale: 0.25, Seed: 42, MaxTicks: 4000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12a", "fig12b",
		"fig13a", "fig13b", "fig14", "overhead", "failover", "elastic",
		"replication", "readstorm",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	titles := Titles()
	for _, id := range IDs() {
		if titles[id] == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
	for _, e := range registry {
		if e.title == "" || (e.cols == nil && e.report == nil) {
			t.Errorf("entry %s: title %q, columns %d, report set: %v", e.id, e.title, len(e.cols), e.report != nil)
		}
		if e.scenario == nil {
			continue // a closed form: the report computes everything
		}
		cells := e.scenario.cells(Options{Seed: 42, Scale: 0.25, MaxTicks: 4000})
		if len(cells) == 0 {
			t.Errorf("entry %s: scenario lists no cells", e.id)
		}
		for i, cl := range cells {
			if cl.bal == "" || cl.gen == nil {
				t.Errorf("entry %s: cell %d names no balancer or builds no workload", e.id, i)
			}
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestTable1RatiosMatchPaper(t *testing.T) {
	res := quick(t, "table1")
	for _, w := range WorkloadNames {
		got := res.Values[w+".ratio"]
		want := res.Values[w+".paper"]
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("%s meta ratio %v, paper %v", w, got, want)
		}
	}
}

func TestFig2VanillaSkewsOnCNN(t *testing.T) {
	res := quick(t, "fig2")
	// The motivation study: CNN is the most imbalanced workload under
	// the built-in balancer.
	if res.Values["CNN.maxShare"] < 0.3 {
		t.Fatalf("CNN max share %v: vanilla should be badly skewed", res.Values["CNN.maxShare"])
	}
	if res.Values["CNN.maxMin"] < res.Values["Zipf.maxMin"] {
		t.Fatal("CNN must be more skewed than Zipf under vanilla")
	}
}

func TestFig4VanillaOverMigrates(t *testing.T) {
	// A notch above the other tests' scale: the over-migration ratio
	// grows with the run horizon (vanilla re-migrates the same subtrees
	// epoch after epoch), and at 0.25 the run is short enough to leave
	// the ratio hovering right at 1.
	res, err := Run("fig4", Options{Scale: 0.3, Seed: 42, MaxTicks: 8000})
	if err != nil {
		t.Fatal(err)
	}
	// The namespace is migrated more than once over (invalid and
	// repeated migrations).
	if res.Values["Zipf.ratio"] < 1 {
		t.Fatalf("Zipf migration ratio %v: expected over-migration", res.Values["Zipf.ratio"])
	}
}

func TestFig6LunuleBalancesBest(t *testing.T) {
	res := quick(t, "fig6")
	for _, w := range WorkloadNames {
		lun := res.Values[w+"/Lunule.meanIF"]
		greedy := res.Values[w+"/GreedySpill.meanIF"]
		if lun >= greedy {
			t.Fatalf("%s: Lunule IF %v not below GreedySpill %v", w, lun, greedy)
		}
	}
	// The scan workloads defeat the heat-based vanilla policy.
	if res.Values["CNN/Lunule.meanIF"] >= res.Values["CNN/Vanilla.meanIF"] {
		t.Fatal("CNN: Lunule must balance better than Vanilla")
	}
}

func TestFig7LunuleThroughput(t *testing.T) {
	res := quick(t, "fig7")
	// Lunule improves CNN throughput substantially over all baselines
	// (paper: 2.81x over Vanilla) and never collapses elsewhere.
	if res.Values["CNN.lunule-vs-Vanilla"] < 1.2 {
		t.Fatalf("CNN Lunule/Vanilla = %v, want > 1.2", res.Values["CNN.lunule-vs-Vanilla"])
	}
	if res.Values["CNN.lunule-vs-GreedySpill"] < 1.5 {
		t.Fatalf("CNN Lunule/GreedySpill = %v, want > 1.5", res.Values["CNN.lunule-vs-GreedySpill"])
	}
	for _, w := range WorkloadNames {
		if r := res.Values[w+".lunule-vs-Vanilla"]; r < 0.8 {
			t.Fatalf("%s: Lunule collapsed vs Vanilla (%v)", w, r)
		}
	}
}

func TestFig12bBenignImbalanceTolerated(t *testing.T) {
	res := quick(t, "fig12b")
	if res.Values["phase1.rebalances"] != 0 {
		t.Fatalf("phase-1 light imbalance triggered %v rebalances, want 0",
			res.Values["phase1.rebalances"])
	}
	// Throughput grows with the client population.
	if res.Values["phase4.iops"] <= res.Values["phase1.iops"] {
		t.Fatal("throughput must grow across phases")
	}
}

func TestFig13aScalesNearLinearly(t *testing.T) {
	res := quick(t, "fig13a")
	if eff := res.Values["mds8.efficiency"]; eff < 0.7 {
		t.Fatalf("8-MDS efficiency %v, want near-linear", eff)
	}
	if res.Values["mds16.peak"] <= res.Values["mds4.peak"] {
		t.Fatal("peak must grow with cluster size")
	}
}

func TestFig13bOrdering(t *testing.T) {
	res := quick(t, "fig13b")
	if res.Values["Lunule.mean"] <= res.Values["Dir-Hash.mean"] {
		t.Fatalf("Lunule (%v) must beat Dir-Hash (%v) on Web",
			res.Values["Lunule.mean"], res.Values["Dir-Hash.mean"])
	}
}

func TestFig14DirHashShape(t *testing.T) {
	res := quick(t, "fig14")
	// Dir-Hash: inodes spread evenly (small max/min spread)...
	if spread := res.Values["Dir-Hash.inodeSpread"]; spread > 2 {
		t.Fatalf("Dir-Hash inode spread %v, want ~1", spread)
	}
	// ...but far more forwards than the dynamic balancers.
	if res.Values["dirhash-fwd-vs-vanilla"] < 1.5 {
		t.Fatalf("Dir-Hash forwards ratio %v, want well above 1",
			res.Values["dirhash-fwd-vs-vanilla"])
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	res := quick(t, "overhead")
	// ~0.94 KB per-MDS per-epoch report.
	if out := res.Values["mds16.lunule.outKB"]; math.Abs(out-0.94) > 0.1 {
		t.Fatalf("per-MDS out %v KB, paper ~0.94", out)
	}
	// ~14.1 KB initiator in-bound at 16 MDSs.
	if in := res.Values["mds16.lunule.initiatorInKB"]; math.Abs(in-14.1) > 1.5 {
		t.Fatalf("initiator in %v KB, paper ~14.1", in)
	}
	// Centralized collection is cheaper than N-to-N.
	if res.Values["mds16.lunule.totalKB"] >= res.Values["mds16.vanilla.totalKB"] {
		t.Fatal("N-to-1 must be cheaper than N-to-N")
	}
	// N-to-N grows faster than the n(n-1) message count: each heartbeat
	// carries the sender's whole load vector.
	if res.Values["mds16.vanilla.totalKB"]/res.Values["mds5.vanilla.totalKB"] <= 16.*15/(5*4) {
		t.Fatal("heartbeat size must grow with the cluster")
	}
}

func TestAblationUrgency(t *testing.T) {
	res := quick(t, "ablation")
	full := res.Values["urgency/full Lunule.rebalances"]
	off := res.Values["urgency/urgency off.rebalances"]
	if full != 0 {
		t.Fatalf("full Lunule fired %v rebalances on benign skew, want 0", full)
	}
	if off <= full {
		t.Fatalf("urgency-off must fire on benign skew (got %v)", off)
	}
}

func TestSharedDirLunuleSplits(t *testing.T) {
	res := quick(t, "shareddir")
	if res.Values["lunule-vs-vanilla"] < 1.5 {
		t.Fatalf("shared-dir speedup %v, want > 1.5", res.Values["lunule-vs-vanilla"])
	}
	if res.Values["Lunule.frags"] < 2 {
		t.Fatalf("Lunule fragments = %v, want > 1", res.Values["Lunule.frags"])
	}
	if res.Values["Vanilla.frags"] != 1 {
		t.Fatalf("Vanilla fragments = %v, want 1 (cannot split)", res.Values["Vanilla.frags"])
	}
}

func TestHeteroRunsComplete(t *testing.T) {
	res := quick(t, "hetero")
	// The degraded-run throughput must stay positive for both systems
	// and Lunule must re-stabilize at least as well as Vanilla.
	lun := res.Values["mid-run degradation/Lunule.mean"]
	van := res.Values["mid-run degradation/Vanilla.mean"]
	if lun <= 0 || van <= 0 {
		t.Fatal("degraded runs must make progress")
	}
	if lun < van*0.9 {
		t.Fatalf("Lunule degraded throughput %v far below Vanilla %v", lun, van)
	}
}

func TestFailoverZeroLostOps(t *testing.T) {
	res, err := Run("failover", Options{Scale: 0.25, Seed: 42, MaxTicks: 8000})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"Zipf", "SharedDir"} {
		for _, b := range []string{"Vanilla", "Lunule"} {
			key := wl + "." + b
			if res.Values[key+".done"] != 1 {
				t.Fatalf("%s: clients unfinished — lost ops after the crash", key)
			}
			// The crash must be observable: either ops stalled on the dead
			// rank, or an in-flight export aborted (when the hottest rank
			// was mid-export, authority rolls to the importer and clients
			// redirect without stalling).
			if res.Values[key+".stalled"]+res.Values[key+".aborted"] == 0 {
				t.Fatalf("%s: crash of the hottest rank left no trace", key)
			}
			// Takeover happens exactly at the configured window for every
			// subtree the dead rank owned.
			if r := res.Values[key+".reassign"]; r != 0 && r != failoverRecoveryTicks {
				t.Fatalf("%s: reassign after %v ticks, want %d", key, r, failoverRecoveryTicks)
			}
		}
	}
}

func TestElasticBeatsStaticFleets(t *testing.T) {
	res, err := Run("elastic", Options{Scale: 0.25, Seed: 42, MaxTicks: 8000, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	// One full cycle in one run: the controller grew for the burst and
	// gracefully drained back to the floor afterwards.
	if res.Values["elastic.scale_ups"] < 1 {
		t.Fatal("autoscaler never scaled up during the burst")
	}
	if res.Values["elastic.drains"] < 1 {
		t.Fatal("autoscaler never drained back down after the burst")
	}
	if got := res.Values["elastic.end_ranks"]; got != 4 {
		t.Fatalf("elastic fleet settled at %v active ranks, want the floor 4", got)
	}
	// The economics: more capacity than static-4 when it matters...
	if e, s := res.Values["elastic.jct50"], res.Values["static-4.jct50"]; e >= s {
		t.Fatalf("elastic JCT p50 %v not better than static-4 %v", e, s)
	}
	// ...without paying static-16's idle-fleet bill.
	if e, s := res.Values["elastic.rank_epochs"], res.Values["static-16.rank_epochs"]; e >= s {
		t.Fatalf("elastic rank-epochs %v not below static-16 %v", e, s)
	}
}

func TestReplicationWarmBeatsCold(t *testing.T) {
	res, err := Run("replication", Options{Scale: 0.25, Seed: 42, MaxTicks: 8000, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"r1", "r2", "r3"} {
		if res.Values[r+".done"] != 1 {
			t.Fatalf("%s: clients unfinished — lost ops under churn", r)
		}
	}
	// The scenario must actually exercise both paths: cold takeovers at
	// R=1, warm promotions at R=2.
	if res.Values["r1.cold"] == 0 {
		t.Fatal("R=1 cell saw no cold takeovers — churn proves too little")
	}
	if res.Values["r1.warm"] != 0 {
		t.Fatal("R=1 cell recorded warm recoveries without a manager")
	}
	if res.Values["r2.warm"] == 0 || res.Values["r2.promotions"] == 0 {
		t.Fatal("R=2 cell never promoted a standby")
	}
	// The headline claims: warm failover collapses recovery latency and
	// the stalls (and therefore JCT) that ride on it.
	if w, c := res.Values["r2.reassign"], res.Values["r1.reassign"]; w >= c {
		t.Fatalf("R=2 mean reassign %v not below cold %v", w, c)
	}
	if w, c := res.Values["r2.stalled"], res.Values["r1.stalled"]; w >= c {
		t.Fatalf("R=2 stalled ops %v not below cold %v", w, c)
	}
	if w, c := res.Values["r2.jct50"], res.Values["r1.jct50"]; w > c {
		t.Fatalf("R=2 JCT p50 %v worse than cold %v", w, c)
	}
	// Losing a standby under churn must trigger background re-replication.
	if res.Values["r2.resyncs"] == 0 {
		t.Fatal("R=2 cell never re-replicated after a loss")
	}
}

func TestReadStormLeasesBeatMigration(t *testing.T) {
	res, err := Run("readstorm", Options{Scale: 0.25, Seed: 42, MaxTicks: 4000, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	// The tentpole claim: on a shared-directory read storm, lease-based
	// read replicas beat both the built-in balancer and migration-only
	// Lunule on completion time AND aggregate throughput.
	lease, van, lun := res.Values["lease.jct50"], res.Values["vanilla.jct50"], res.Values["lunule.jct50"]
	if lease >= van || lease >= lun {
		t.Fatalf("lease JCT p50 %v not below vanilla %v and lunule %v", lease, van, lun)
	}
	if lt, vt, ut := res.Values["lease.tput"], res.Values["vanilla.tput"], res.Values["lunule.tput"]; lt <= vt || lt <= ut {
		t.Fatalf("lease ops/sec %v not above vanilla %v and lunule %v", lt, vt, ut)
	}
	// The win must come from lease serving, not from a lucky balancer
	// run: holders actually served reads, and the storm directory was
	// replicated instead of migrated.
	if res.Values["lease.lease_serves"] == 0 {
		t.Fatal("lease cell recorded no lease serves")
	}
	if res.Values["lease.granted"] == 0 {
		t.Fatal("lease cell granted no leases")
	}
	// The baselines must not accidentally have lease machinery on.
	for _, cell := range []string{"vanilla", "lunule"} {
		if res.Values[cell+".lease_serves"] != 0 || res.Values[cell+".granted"] != 0 {
			t.Fatalf("%s cell has lease activity", cell)
		}
	}
}

func TestNoisyQoSProtectsVictims(t *testing.T) {
	res, err := Run("noisy", Options{Scale: 0.25, Seed: 42, MaxTicks: 4000, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	iso := res.Values["isolated.victim50"]
	if iso <= 0 {
		t.Fatal("isolated baseline recorded no victim completions")
	}
	// Without admission control the storm degrades victims badly no
	// matter which balancer runs — spreading the storm spreads the
	// congestion.
	for _, cell := range []string{"vanilla", "lunule"} {
		if r := res.Values[cell+".victim50"] / iso; r < 2 {
			t.Fatalf("%s victim p50 only %.2fx isolated; the storm should at least double it", cell, r)
		}
		if res.Values[cell+".aggr_throttled"] != 0 {
			t.Fatalf("%s cell throttled the aggressor; its buckets must be uncontended", cell)
		}
	}
	// With per-tenant buckets the victims stay near their isolated
	// completion times (full scale holds 1.25x; the shorter test run
	// leaves the startup transient a bigger share, hence 1.5x) and the
	// win must come from admission actually cutting the aggressor.
	if r := res.Values["qos.victim50"] / iso; r > 1.5 {
		t.Fatalf("qos victim p50 %.2fx isolated, want <= 1.5x", r)
	}
	if res.Values["qos.victim50"] >= res.Values["vanilla.victim50"] ||
		res.Values["qos.victim50"] >= res.Values["lunule.victim50"] {
		t.Fatal("qos cell does not beat both unprotected cells on victim p50")
	}
	if res.Values["qos.aggr_throttled"] == 0 {
		t.Fatal("qos cell never throttled the aggressor")
	}
}

func TestResultRendering(t *testing.T) {
	res := quick(t, "overhead")
	out := res.String()
	if len(out) == 0 || res.ID != "overhead" {
		t.Fatal("result rendering")
	}
}
