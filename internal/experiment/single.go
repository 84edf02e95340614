package experiment

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Table 1 measures each generator's op mix and namespace shape. No
// cluster runs: it is a closed form over the generators.
var expTable1 = entry{
	id: "table1", title: "Table 1: workload characteristics (metadata-op ratios)",
	report: func(res *Result, opt Options, _ []*run) error {
		type shape struct {
			name               string
			ratio, paper       float64
			files, dirs, nMeta int
		}
		ratios := map[string]float64{"CNN": 0.781, "NLP": 0.928, "Web": 0.572, "Zipf": 0.50, "MD": 1.00}
		var shapes []shape
		for _, name := range WorkloadNames {
			tree := namespace.NewTree()
			specs, err := paper(name, opt).Setup(tree, 2, rng.New(opt.Seed))
			if err != nil {
				return err
			}
			st := workload.Measure(specs[0].Stream)
			sh := shape{name: name, ratio: st.Ratio(), paper: ratios[name], nMeta: st.MetaOps}
			tree.Walk(func(in *namespace.Inode) bool {
				if in.IsDir {
					sh.dirs++
				} else {
					sh.files++
				}
				return true
			})
			shapes = append(shapes, sh)
		}
		tabulate(res, shapes, func(s shape) string { return s.name },
			text("workload", func(s shape) string { return s.name }),
			num("meta-op ratio", ".ratio", f3, func(s shape) float64 { return s.ratio }),
			num("paper", ".paper", f3, func(s shape) float64 { return s.paper }),
			shown("files", fi, func(s shape) float64 { return float64(s.files) }),
			shown("dirs", fi, func(s shape) float64 { return float64(s.dirs) }),
			shown("ops/client", fi, func(s shape) float64 { return float64(s.nMeta) }))
		return nil
	},
	notes: []string{"ratios are structural properties of the generators and should match the paper within a few percent"},
}

func shares(r *run) []float64 { return r.Metrics().ShareOfRequests() }

// Figure 2 is the motivation study: each MDS's share of all requests
// under the CephFS built-in balancer.
var expFig2 = entry{
	id: "fig2", title: "Figure 2: per-MDS request distribution under the built-in balancer",
	scenario: grid(WorkloadNames, []string{"Vanilla"}, byWorkload, cell{}, paper),
	cols:     fig2Cols(),
	notes:    []string{"the paper observes shares as skewed as 90.3% on one MDS (CNN) and max/min ratios of 22-220x"},
}

func fig2Cols() []column[*run] {
	cols := []column[*run]{label("workload", 0)}
	for i := 0; i < 5; i++ { // the default cluster's five MDSs
		cols = append(cols, shown(fmt.Sprintf("MDS-%d", i+1), pct, func(r *run) float64 { return shares(r)[i] }))
	}
	return append(cols,
		num("max/min", ".maxMin", f1, func(r *run) float64 {
			if lo := slices.Min(shares(r)); lo > 0 {
				return slices.Max(shares(r)) / lo
			}
			return 0
		}),
		value(".maxShare", func(r *run) float64 { return slices.Max(shares(r)) }))
}

// Figures 3 and 4 plot two views of the same two Vanilla runs.
var vanillaPair = grid([]string{"Zipf", "CNN"}, []string{"Vanilla"}, byWorkload, cell{}, paper)

// Figure 3 records the per-MDS instantaneous throughput under Vanilla
// for the two workloads the paper plots.
var expFig3 = entry{
	id: "fig3", title: "Figure 3: per-MDS throughput over time (Vanilla, Zipf & CNN)",
	scenario: vanillaPair,
	report: func(res *Result, _ Options, rs []*run) error {
		for _, r := range rs {
			for i, s := range r.Metrics().PerMDS {
				res.plot(fmt.Sprintf("%s MDS-%d IOPS", r.key, i+1), s, 10)
				res.val(fmt.Sprintf("%s.mds%d.mean", r.key, i+1), s.MeanValue())
			}
		}
		return nil
	},
	notes: []string{"the paper's counterpart shows ping-pong load swaps (Zipf) and a single active MDS (CNN)"},
}

func inodes(r *run) float64 { return float64(r.Tree().NumInodes()) }

// Figure 4 records the cumulative migrated-inode counts under Vanilla.
var expFig4 = entry{
	id: "fig4", title: "Figure 4: cumulative migrated inodes (Vanilla, Zipf & CNN)",
	scenario: vanillaPair,
	cols: []column[*run]{label("workload", 0),
		num("migrated inodes", ".migrated", fi, migrated),
		shown("namespace inodes", fi, inodes),
		num("ratio", ".ratio", f2, func(r *run) float64 { return migrated(r) / inodes(r) })},
	report: func(res *Result, _ Options, rs []*run) error {
		for _, r := range rs {
			res.plot(r.key+" cumulative migrated", &r.Metrics().Migrated, 10)
		}
		return nil
	},
	notes: []string{"Vanilla migrates the namespace repeatedly (ratio >> 1): over-migration and invalid candidate selection"},
}

// paperGrid is the 5-workload x 4-balancer grid behind Figures 6 and 7.
var paperGrid = grid(WorkloadNames, BalancerNames, byBoth, cell{}, paper)

// Figure 6 reproduces the imbalance-factor comparison.
var expFig6 = entry{
	id: "fig6", title: "Figure 6: imbalance factor per workload and balancer",
	scenario: paperGrid,
	cols: []column[*run]{label("workload", 0), label("balancer", 1),
		num("mean IF", ".meanIF", f3, meanIF),
		shown("tail IF", f3, func(r *run) float64 { return r.Metrics().TailIF(10) }),
		text("IF series", func(r *run) string { return metrics.FormatSeries(&r.Metrics().IF, 8) })},
	notes: []string{"expected shape: GreedySpill worst (IF toward 1), Vanilla poor on the scan workloads (CNN/NLP), Lunule lowest"},
}

// Figure 7 reproduces the aggregate-throughput comparison.
var expFig7 = entry{
	id: "fig7", title: "Figure 7: metadata throughput per workload and balancer",
	scenario: paperGrid,
	cols: []column[*run]{label("workload", 0), label("balancer", 1), colPeakIOPS, colMeanIOPS,
		num("lat p99.9", ".lat999", fi, func(r *run) float64 { return r.Metrics().LatencyQuantile(0.999) }),
		colJCT50, colJCT99},
	report: func(res *Result, _ Options, _ []*run) error {
		for _, w := range WorkloadNames {
			for _, b := range BalancerNames[:3] { // the three baselines
				res.ratio(w+".lunule-vs-"+b, w+"/Lunule.mean", w+"/"+b+".mean")
			}
		}
		return nil
	},
	notes: []string{"paper: Lunule improves CNN throughput 2.81x over Vanilla, NLP 1.76x, and is at least on par elsewhere"},
}

// Figure 8 enables the data path and measures end-to-end job completion
// for the four read workloads (MD excluded, as in the paper). The data
// pool is sized so the large-file workloads brush against it once
// metadata is balanced: the dilution effect the figure measures.
var fig8Workloads = []string{"CNN", "NLP", "Zipf", "Web"}

var expFig8 = entry{
	id: "fig8", title: "Figure 8: end-to-end job completion time with data access",
	scenario: grid(fig8Workloads, []string{"Vanilla", "Lunule"}, byBoth,
		cell{shape: cluster.Config{DataBandwidth: 6 * (24 << 20)}}, paper), // 6 OSDs x 24 MiB
	report: func(res *Result, _ Options, rs []*run) error {
		base := map[string]float64{} // workload -> Vanilla's JCT p50
		for _, r := range rs {
			if r.bal == "Vanilla" {
				base[r.labels[0]] = jct(0.5)(r)
			}
		}
		tabulate(res, rs, runKey, label("workload", 0), label("balancer", 1), colJCT50, colJCT99,
			shown("speedup p50", f2, func(r *run) float64 { // only the Lunule rows carry one
				if own := jct(0.5)(r); r.bal == "Lunule" && own > 0 {
					return base[r.labels[0]] / own
				}
				return math.NaN()
			}))
		for _, w := range fig8Workloads {
			res.ratio(w+".speedup", w+"/Vanilla.jct50", w+"/Lunule.jct50")
		}
		return nil
	},
	notes: []string{"paper: 18.6-64.6% shorter completion for CNN/NLP/Zipf; Web gains are diluted by the data path"},
}
