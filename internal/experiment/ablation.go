package experiment

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// The ablation quantifies three design choices the paper argues for by
// running full Lunule beside a variant with that choice alone turned
// off, on the scenario where it should matter:
//
//   - the urgency term (Eq. 2), measured by how many rebalances fire on
//     a lightly loaded, skewed cluster (benign imbalance);
//   - the sibling-correlation credit (§3.3), measured by CNN throughput
//     (it is what ships not-yet-visited subtrees ahead of the scan);
//   - the importer-side future-load gate of Algorithm 1, measured by
//     migration churn on the Zipf workload (it is the anti-ping-pong
//     mechanism).
var expAblation = entry{
	id: "ablation", title: "Ablation: contribution of each Lunule design choice",
	scenario: &scenario{func(opt Options) []cell {
		// pair lists the full-Lunule cell and then the variant's.
		pair := func(group, off string, disable core.Config, scenario, metric string, base cell) []cell {
			full := base
			full.labels, full.key, full.bal = []string{"full Lunule", scenario, metric}, group+"/full Lunule", "Lunule"
			variant := full
			variant.labels, variant.key = []string{off, scenario, metric}, group+"/"+off
			disable.WorkloadAware = true
			variant.attach = func(cfg *cluster.Config) { cfg.Balancer = core.New(disable) }
			return []cell{full, variant}
		}
		light := cell{
			gen: func() workload.Generator {
				return workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(8000, opt.Scale, 6000)})
			},
			shape: cluster.Config{Clients: 10, ClientRate: 40}, // ~20% of one MDS: harmless skew
			// marks[0] counts the rebalance activations.
			drive: func(r *run, _ int64) {
				r.Run(150)
				r.marks = []int{r.policy.(*core.Lunule).Rebalances()}
			},
		}
		on := func(w string) cell { return cell{gen: func() workload.Generator { return paper(w, opt) }} }
		return slices.Concat(
			pair("urgency", "urgency off", core.Config{DisableUrgency: true}, "light load (benign skew)", "rebalances", light),
			pair("sibling", "sibling credit off", core.Config{DisableSiblingCredit: true}, "CNN scan", "mean IOPS", on("CNN")),
			pair("gate", "importer gate off", core.Config{DisableImporterGate: true}, "Zipf reads", "migrated inodes", on("Zipf")))
	}},
	report: func(res *Result, _ Options, rs []*run) error {
		// One headline metric per pair under "value", and a second value.
		for i, pairCols := range [][]column[*run]{
			{num("value", ".rebalances", fi, func(r *run) float64 { return float64(r.marks[0]) }),
				value(".migrated", migrated)},
			{num("value", ".mean", fi, meanIOPS), value(".meanIF", meanIF)},
			{num("value", ".migrated", fi, migrated), value(".jct50", jct(0.5))},
		} {
			cols := append([]column[*run]{label("variant", 0), label("scenario", 1), label("metric", 2)}, pairCols...)
			tabulate(res, rs[2*i:2*i+2], runKey, cols...)
		}
		return nil
	},
	notes: []string{
		"urgency off fires migrations on harmless skew that full Lunule tolerates (the paper's benign-imbalance claim)",
		"sibling credit off barely moves CNN here: dirfrag slicing already ships unvisited content structurally (a hash slice of a scan region carries its share of not-yet-visited directories regardless of their index) — a reproduction finding, see EXPERIMENTS.md",
		"importer gate off changes Zipf churn only marginally at this scale; the Cap ceiling absorbs most over-import pressure"},
}
