package experiment

import "fmt"

// mixedPair runs the mixed workload under Vanilla and Lunule; Figures
// 9, 10 and 11 are three views of these two runs.
var mixedPair = grid([]string{"Mixed"}, []string{"Vanilla", "Lunule"}, byBalancer, cell{}, paper)

var expFig9 = entry{
	id: "fig9", title: "Figure 9: imbalance factor under the mixed workload",
	scenario: mixedPair,
	cols: []column[*run]{label("balancer", 1),
		num("mean IF", ".meanIF", f3, meanIF),
		num("max IF", ".maxIF", f3, func(r *run) float64 { return r.Metrics().IF.MaxValue() }),
		num("run length (ticks)", ".ticks", fi, func(r *run) float64 { return float64(r.Tick()) })},
	report: func(res *Result, _ Options, rs []*run) error {
		for _, r := range rs {
			res.plot(r.key+" IF", &r.Metrics().IF, 10)
		}
		return nil
	},
	notes: []string{"paper: Vanilla's IF fluctuates up to ~0.6 and re-skews late; Lunule stays near zero and finishes sooner"},
}

var expFig10 = entry{
	id: "fig10", title: "Figure 10: per-MDS throughput under the mixed workload",
	scenario: mixedPair,
	cols: []column[*run]{label("balancer", 1),
		num("agg mean IOPS", ".mean", fi, meanIOPS),
		num("agg peak IOPS", ".peak", fi, peakIOPS)},
	report: func(res *Result, _ Options, rs []*run) error {
		for _, r := range rs {
			for i, s := range r.Metrics().PerMDS {
				res.plot(fmt.Sprintf("%s MDS-%d IOPS", r.key, i+1), s, 10)
			}
		}
		return nil
	},
	ratios: [][3]string{{"meanSpeedup", "Lunule.mean", "Vanilla.mean"}},
	notes:  []string{"paper: Lunule's per-MDS curves stay even; during the first interval its clustered IOPS is ~1.6x Vanilla's"},
}

var expFig11 = entry{
	id: "fig11", title: "Figure 11: job-completion-time CDF under the mixed workload",
	scenario: mixedPair,
	cols: []column[*run]{label("balancer", 1),
		num("JCT p50", ".p50", fi, jct(0.5)),
		num("JCT p80", ".p80", fi, jct(0.8)),
		num("JCT p99", ".p99", fi, jct(0.99))},
	ratios: [][3]string{{"tailImprovement", "Vanilla.p99", "Lunule.p99"}},
	notes:  []string{"paper: Lunule's p99 completion is 1.42x better; ~80% of clients finish before Vanilla's corresponding point"},
}
