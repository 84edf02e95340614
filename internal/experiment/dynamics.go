package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Figure 12(a) starts a 4-MDS cluster and adds one MDS at each of these
// ticks; Lunule must absorb the new capacity and raise aggregate
// throughput.
const fig12aAdd1, fig12aAdd2 = 100, 200

var expFig12a = entry{
	id: "fig12a", title: "Figure 12(a): expanding the MDS cluster at runtime (Zipf)",
	scenario: &scenario{func(opt Options) []cell {
		return []cell{{
			bal: "Lunule",
			gen: func() workload.Generator {
				return workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(60000, opt.Scale, 45000)})
			},
			// Demand (60 clients x 150 ops/s = 9000) exceeds the initial
			// four MDSs' capacity, so each added server raises throughput.
			shape: cluster.Config{MDS: 4, Clients: 60},
			drive: func(r *run, maxTicks int64) {
				r.ScheduleAddMDS(fig12aAdd1, 1)
				r.ScheduleAddMDS(fig12aAdd2, 1)
				r.RunUntilDone(maxTicks)
			},
		}}
	}},
	report: func(res *Result, _ Options, rs []*run) error {
		type phase struct {
			n      int // 1-based; the cluster has 3+n MDSs during it
			name   string
			lo, hi int64
		}
		// Skip each phase's first 40 ticks (warm-up and migration).
		phases := []phase{
			{1, "start", 40, fig12aAdd1},
			{2, fmt.Sprintf("after +1 MDS @%d", fig12aAdd1), fig12aAdd1 + 40, fig12aAdd2},
			{3, fmt.Sprintf("after +1 MDS @%d", fig12aAdd2), fig12aAdd2 + 40, fig12aAdd2 + 140},
		}
		tabulate(res, phases, func(p phase) string { return fmt.Sprintf("phase%d", p.n) },
			text("phase", func(p phase) string { return p.name }),
			shown("MDSs", fi, func(p phase) float64 { return float64(3 + p.n) }),
			num("aggregate IOPS", "", fi, func(p phase) float64 { return aggWindow(p.lo, p.hi)(rs[0]) }))
		for i, s := range rs[0].Metrics().PerMDS {
			res.plot(fmt.Sprintf("MDS-%d IOPS", i+1), s, 10)
		}
		return nil
	},
	notes: []string{"paper: each added MDS quickly absorbs migrated load and the clustered throughput steps up (41k -> 51k -> +10%)"},
}

// phased wraps a generator so the clients start in equal groups at
// fixed phase boundaries (the paper launches 10 clients per phase).
type phased struct {
	inner      workload.Generator
	phaseTicks int64
	phases     int
}

func (p *phased) Name() string { return p.inner.Name() + "-phased" }

func (p *phased) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]workload.ClientSpec, error) {
	specs, err := p.inner.Setup(tree, clients, src)
	if err != nil {
		return nil, err
	}
	per := max(clients/p.phases, 1)
	for i := range specs {
		specs[i].StartTick = int64(min(i/per, p.phases-1)) * p.phaseTicks
	}
	return specs, nil
}

// Figure 12(b) grows the client population in four phases. The light
// phase-one imbalance must NOT trigger re-balance (the urgency term
// classifies it as benign), while later phases spread load.
const (
	fig12bPhases     = 4
	fig12bPhaseTicks = 100
)

var expFig12b = entry{
	id: "fig12b", title: "Figure 12(b): growing the client population in phases (Zipf)",
	scenario: &scenario{func(opt Options) []cell {
		return []cell{{
			bal: "Lunule",
			gen: func() workload.Generator {
				return &phased{
					// Clients must outlive all four phases (400 ticks at 45
					// ops/s), so the op count has a hard floor.
					inner:      workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(30000, opt.Scale, 23000)}),
					phaseTicks: fig12bPhaseTicks,
					phases:     fig12bPhases,
				}
			},
			// Phase-one demand stays well under one MDS's capacity.
			shape: cluster.Config{Clients: 40, ClientRate: 45},
			// marks[p] counts the rebalance activations of phase p.
			drive: func(r *run, maxTicks int64) {
				lun, prev := r.policy.(*core.Lunule), 0
				for p := 0; p < fig12bPhases; p++ {
					r.Run(fig12bPhaseTicks)
					r.marks = append(r.marks, lun.Rebalances()-prev)
					prev = lun.Rebalances()
				}
				r.RunUntilDone(maxTicks)
			},
		}}
	}},
	report: func(res *Result, _ Options, rs []*run) error {
		r := rs[0]
		tabulate(res, []int{1, 2, 3, 4}, func(p int) string { return fmt.Sprintf("phase%d", p) },
			shown("phase", fi, func(p int) float64 { return float64(p) }),
			shown("clients", fi, func(p int) float64 { return float64(10 * p) }),
			num("rebalances", ".rebalances", fi, func(p int) float64 { return float64(r.marks[p-1]) }),
			num("agg IOPS (end of phase)", ".iops", fi, func(p int) float64 {
				end := int64(p) * fig12bPhaseTicks
				return aggWindow(end-20, end)(r)
			}))
		return nil
	},
	notes: []string{"paper: the first-phase imbalance is tolerated (all MDSs lightly loaded -> low urgency -> no migration); throughput rises per phase"},
}
