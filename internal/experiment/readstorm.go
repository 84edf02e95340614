package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/replica"
	"repro/internal/workload"
)

// Read-replica policy of the lease cell. R=5 puts four serve-capable
// standbys behind the storm's primary, so all five ranks share the read
// stream — the same spread dirfrag migration eventually reaches, but
// standing one epoch after the storm starts instead of after several
// epochs of exports; LeaseTicks is four epochs, long enough that a
// steady storm refreshes leases before they lapse; ReplicateReadFrac
// demands a strongly read-dominated subtree before replication kicks
// in, so write-heavy hotspots still go to the migrator.
const (
	readStormR        = 5
	readStormLease    = 40
	readStormReadFrac = 0.75
)

// ofReplicas reads a counter off a run's replica manager; a cell
// without one counts 0.
func ofReplicas(get func(*replica.Manager) int64) func(*run) float64 {
	return func(r *run) float64 {
		if m := r.Replicas(); m != nil {
			return float64(get(m))
		}
		return 0
	}
}

// The readstorm experiment measures what lease-based read replication
// buys on the workload migration fundamentally cannot fix: every client
// hammering one shared directory with cache-miss reads. Moving the
// directory (or its dirfrags) just relocates the queue — the aggregate
// service rate stays one rank's capacity per fragment, and a
// Zipf-skewed storm concentrates in few fragments. Serving reads from
// lease holders multiplies the service rate by the replica count
// instead. Three identically-seeded cells, each of which must finish:
// the CephFS built-in balancer, migration-only Lunule, and Lunule with
// read leases on R-1 standbys.
var expReadStorm = entry{
	id: "readstorm", title: "Extension: lease-based hot-read replicas vs pure migration under a shared-directory read storm",
	scenario: &scenario{func(opt Options) []cell {
		on := func(name, key, bal string, leases bool) cell {
			cl := cell{labels: []string{name}, key: key, mustFinish: true, bal: bal,
				gen: func() workload.Generator { return paper("ReadStorm", opt) }}
			if leases {
				cl.attach = func(cfg *cluster.Config) {
					pol := replica.DefaultPolicy()
					pol.R = readStormR
					pol.LeaseTicks = readStormLease
					pol.ReplicateReadFrac = readStormReadFrac
					cfg.Replication = replica.MustManager(pol)
				}
			}
			return cl
		}
		return []cell{
			on("Vanilla", "vanilla", "Vanilla", false),
			on("Lunule", "lunule", "Lunule", false),
			on("Lunule+leases", "lease", "Lunule", true),
		}
	}},
	cols: []column[*run]{label("cell", 0), colJCT50, colJCTMax,
		num("ops/sec", ".tput", f1, meanIOPS),
		num("migrated", ".migrated", fi, migrated),
		num("lease serves", ".lease_serves", fi, func(r *run) float64 { return float64(r.LeaseServes()) }),
		num("granted", ".granted", fi, ofReplicas((*replica.Manager).LeasesGranted)),
		shown("revoked", fi, ofReplicas((*replica.Manager).LeasesRevoked)),
		num("expired", ".expired", fi, ofReplicas((*replica.Manager).LeasesExpired)),
		colFinished},
	notes: []string{
		"same seeded Zipf read storm on one shared directory in every cell; only the policy differs",
		fmt.Sprintf("lease cell: R=%d replication, %d-tick leases, grants require read fraction >= %.2f",
			readStormR, readStormLease, readStormReadFrac),
		"migration relocates the storm's queue; leases multiply its service rate across the replica holders"},
}
