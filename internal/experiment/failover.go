package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// The failover experiment reproduces the paper's balancing decisions
// *through* a full MDS failure: under the Zipf and shared-directory
// workloads it crashes the hottest rank mid-run, keeps it down for a
// fixed outage, rejoins it, and runs to completion. Every cell must
// finish with zero lost ops — each client op eventually succeeds or is
// accounted as retried/stalled — while the table compares how fast
// Vanilla and Lunule re-spread the orphaned load across the survivors.
const (
	failoverCrashAt = 100
	failoverRejoin  = failoverCrashAt + 120
	// failoverRecoveryTicks is the takeover window the scenario
	// configures: requests to the dead rank's subtrees stall this long
	// before survivors take them over (models beacon grace + journal
	// replay).
	failoverRecoveryTicks = 30
)

var expFailover = entry{
	id: "failover", title: "Extension: crash the hottest MDS mid-run — failover, abort, and post-failover rebalance",
	scenario: grid([]string{"Zipf", "SharedDir"}, []string{"Vanilla", "Lunule"}, func(w, b string) string { return w + "." + b },
		cell{
			shape: cluster.Config{RecoveryTicks: failoverRecoveryTicks},
			// marks[0] is the rank that was crashed.
			drive: func(r *run, maxTicks int64) {
				r.Run(failoverCrashAt)
				rank := r.CrashHottest()
				r.marks = []int{rank}
				r.Run(failoverRejoin - failoverCrashAt)
				if rank >= 0 {
					r.RecoverMDS(rank)
				}
				r.RunUntilDone(maxTicks)
			},
		},
		func(w string, opt Options) workload.Generator {
			if w == "SharedDir" {
				return workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: scaledMin(15000, opt.Scale, 15000)})
			}
			// Clients must outlive the crash and the outage.
			return workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(40000, opt.Scale, 35000)})
		}),
	cols: []column[*run]{label("workload", 0), label("balancer", 1),
		shown("crashed", fi, func(r *run) float64 { return float64(r.marks[0]) }),
		num("pre IOPS", ".pre", fi, aggWindow(failoverCrashAt-40, failoverCrashAt)),
		num("outage IOPS", ".during", fi, aggWindow(failoverCrashAt, failoverRejoin)),
		num("post IOPS", ".post", fi, aggWindow(failoverRejoin, failoverRejoin+80)),
		colReassign, colStalled,
		num("aborted", ".aborted", fi, func(r *run) float64 { return r.Metrics().AbortedTotal() }),
		num("retries", ".retries", fi, func(r *run) float64 {
			var n int64
			for _, cl := range r.Clients() {
				n += cl.Retries()
			}
			return float64(n)
		}),
		colDone},
	notes: []string{
		fmt.Sprintf("hottest rank crashed at tick %d, rejoined at %d; orphaned subtrees take over after %d ticks (least-loaded survivor)",
			failoverCrashAt, failoverRejoin, failoverRecoveryTicks),
		"zero lost ops: every op eventually succeeds or is accounted as a stalled/backed-off retry",
		"paper context: healthy-cluster evaluation only — this extension measures how each policy re-spreads orphaned load after failover"},
}
