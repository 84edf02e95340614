package experiment

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

// wave is the diurnal-load workload of the elastic experiment: a base
// population of long-running Zipf clients carries steady background
// load, and a burst population of web-trace clients piles on at
// PeakTick and finishes well before the base does. The cluster sees
// quiet -> saturated -> quiet, which is exactly the cycle an
// autoscaler must ride: grow for the peak, drain back after it.
type wave struct {
	base     workload.Generator
	peak     workload.Generator
	baseN    int
	peakTick int64
}

func (w *wave) Name() string { return "Wave(" + w.base.Name() + "+" + w.peak.Name() + ")" }

func (w *wave) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]workload.ClientSpec, error) {
	baseN := min(w.baseN, clients)
	specs, err := w.base.Setup(tree, baseN, src.Fork(1))
	if err != nil {
		return nil, err
	}
	burst, err := w.peak.Setup(tree, clients-baseN, src.Fork(2))
	if err != nil {
		return nil, err
	}
	for i := range burst {
		// The burst generator may stagger starts; keep the stagger but
		// shift the whole group to the peak.
		burst[i].StartTick += w.peakTick
	}
	return append(specs, burst...), nil
}

// The elastic experiment rides one diurnal wave with three fleets over
// the same workload and seed: the autoscaler (floor 4, ceiling 8,
// graceful drain back down), a static-4 fleet (cheap but crushed by the
// peak), and a static-16 fleet (fast but paying for idle ranks all
// run). Every fleet must finish; the elastic one must beat static-4 on
// completion time while billing fewer rank-epochs than static-16.
var expElastic = entry{
	id: "elastic", title: "Extension: elastic MDS autoscaling with graceful drain vs static fleets (diurnal wave)",
	scenario: &scenario{func(opt Options) []cell {
		pol := elastic.DefaultPolicy() // 4..8, up 0.75 / down 0.35
		// 16 base clients and 48 burst clients whose combined demand
		// saturates four ranks but not eight.
		gen := func() workload.Generator {
			return &wave{
				base: workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(60000, opt.Scale, 45000)}),
				peak: workload.NewWeb(workload.WebConfig{
					Files:             scaled(6000, opt.Scale),
					RequestsPerClient: scaledMin(12000, opt.Scale, 9000),
				}),
				baseN:    16,
				peakTick: 150,
			}
		}
		fleet := func(name string, mds int, autoscale bool) cell {
			cl := cell{labels: []string{name}, key: name, mustFinish: true, bal: "Lunule", gen: gen,
				shape: cluster.Config{MDS: mds, Clients: 64},
				drive: func(r *run, maxTicks int64) {
					r.RunUntilDone(maxTicks)
					r.SettleDrains(3000)
				}}
			if autoscale {
				cl.attach = func(cfg *cluster.Config) { cfg.Elastic = elastic.MustController(pol) }
			}
			return cl
		}
		return []cell{
			fleet("elastic", pol.MinRanks, true),
			fleet(fmt.Sprintf("static-%d", pol.MinRanks), pol.MinRanks, false),
			fleet("static-16", 16, false),
		}
	}},
	cols: []column[*run]{label("fleet", 0), colJCT50, colJCTMax,
		num("rank-epochs", ".rank_epochs", fi, func(r *run) float64 { return float64(r.RankEpochs()) }),
		shown("peak ranks", fi, func(r *run) float64 { // ranks that ever served an op
			n := 0
			for _, s := range r.Servers() {
				if s.OpsTotal() > 0 {
					n++
				}
			}
			return float64(n)
		}),
		num("scale-ups", ".scale_ups", fi, func(r *run) float64 { return float64(r.ScaleUps()) }),
		num("drains", ".drains", fi, func(r *run) float64 { return float64(r.DrainsDone()) }),
		value(".end_ranks", func(r *run) float64 { // active ranks left, for the autoscaled fleet
			if r.key != "elastic" {
				return math.NaN()
			}
			return float64(r.ServingRanks() - len(r.DrainingRanks()))
		})},
	report: func(res *Result, _ Options, rs []*run) error {
		res.plot("elastic aggregate IOPS", &rs[0].Metrics().Agg, 10)
		return nil
	},
	notes: []string{
		"one full scale cycle: the controller grows 4->8 for the burst and gracefully drains back to 4 once it passes",
		"elastic must beat static-4 on JCT (capacity when it matters) and static-16 on rank-epochs (no idle fleet)"},
}
