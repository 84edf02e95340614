package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/workload"
)

const (
	replicationRanks = 5
	// replicationRecoveryTicks is the cold takeover window of the
	// experiment — the latency a subtree pays when no warm standby
	// exists (beacon grace + journal replay from the backing store).
	replicationRecoveryTicks = 30
	replicationHorizon       = 250
)

// replicationChurn draws the experiment's MTBF crash/recover schedule
// from its seed. Every cell draws its own copy of the same schedule, so
// the comparison is policy-only.
func replicationChurn(opt Options) *fault.Schedule {
	churn := fault.MTBF(fault.MTBFConfig{
		Ranks:   replicationRanks,
		MTBF:    90,
		MTTR:    80,
		Horizon: replicationHorizon,
	}, rng.New(opt.Seed).Fork(77))
	return &churn
}

func warmRecoveries(r *run) float64 { return float64(r.Metrics().WarmRecoveries()) }

// The replication experiment measures what warm-standby replication
// buys under random failure churn: the same seeded schedule is replayed
// over three identically-seeded clusters at R=1 (no manager: the cold
// RecoveryTicks takeover), R=2, and R=3, each of which must finish.
// Warm cells should collapse recovery latency from the cold window to
// PromoteTicks and shed most of the outage stalls, at the cost of
// journal shipping and background resyncs.
var expReplication = entry{
	id: "replication", title: "Extension: warm-standby subtree replication vs cold takeover under MTBF churn (R=1/2/3)",
	scenario: &scenario{func(opt Options) []cell {
		zipf := func() workload.Generator {
			// Clients must outlive the churn horizon.
			return workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(40000, opt.Scale, 35000)})
		}
		var cells []cell
		for r := 1; r <= 3; r++ {
			name := fmt.Sprintf("R=%d", r)
			if r == 1 {
				name += " (cold)"
			}
			cells = append(cells, cell{labels: []string{name}, key: fmt.Sprintf("r%d", r), mustFinish: true, bal: "Lunule", gen: zipf,
				shape: cluster.Config{MDS: replicationRanks, Clients: 16, RecoveryTicks: replicationRecoveryTicks},
				attach: func(cfg *cluster.Config) {
					cfg.Faults = replicationChurn(opt)
					if r >= 2 {
						pol := replica.DefaultPolicy()
						pol.R = r
						cfg.Replication = replica.MustManager(pol)
					}
				}})
		}
		return cells
	}},
	cols: []column[*run]{label("cell", 0), colJCT50, colJCTMax, colReassign,
		num("warm", ".warm", fi, warmRecoveries),
		num("cold", ".cold", fi, func(r *run) float64 { return float64(len(r.Metrics().RecoveryEvents())) - warmRecoveries(r) }),
		num("promotions", ".promotions", fi, func(r *run) float64 { return float64(r.Promotions()) }),
		num("resyncs", ".resyncs", fi, ofReplicas((*replica.Manager).ResyncsDone)),
		colStalled, colDone},
	report: func(res *Result, opt Options, _ []*run) error {
		crashes := 0
		for _, ev := range replicationChurn(opt).Events {
			if ev.Kind == fault.Crash {
				crashes++
			}
		}
		res.note(fmt.Sprintf("identical seeded MTBF churn per cell: %d crashes over %d ticks (MTBF 90, MTTR 80, 5 ranks)", crashes, replicationHorizon))
		return nil
	},
	notes: []string{
		fmt.Sprintf("cold takeover window %d ticks vs warm promotion %d ticks after the crash",
			replicationRecoveryTicks, replica.PromoteTicks),
		"warm cells ship the heat journal every 5 ticks and re-replicate lost standbys in the background"},
}
