// Package balancer defines the load-balancer interface the simulated
// MDS cluster drives once per epoch, plus the three baseline policies
// the paper evaluates against: the CephFS built-in balancer (Vanilla),
// the GreedySpill policy from GIGA+/Mantle, and the static Dir-Hash
// pinning scheme. The paper's own balancer (Lunule) lives in
// internal/core and implements the same interface.
package balancer

import (
	"repro/internal/mds"
	"repro/internal/msg"
	"repro/internal/namespace"
	"repro/internal/rng"
)

// View is the cluster state a balancer sees at an epoch boundary. Load
// histories have already been updated for the epoch that just ended.
type View interface {
	// Tick is the current simulation tick (seconds).
	Tick() int64
	// Epoch is the index of the epoch that just ended.
	Epoch() int64
	// EpochTicks is the epoch length in ticks.
	EpochTicks() int
	// NumMDS returns the current cluster size.
	NumMDS() int
	// Up reports whether the given rank is alive. Down ranks serve
	// nothing and must never be chosen as migration endpoints.
	Up(id namespace.MDSID) bool
	// Importable reports whether the given rank may receive subtrees:
	// up and not draining. A draining rank still serves (and exports)
	// but is being emptied by the elastic scale-down path, so the
	// balancer must never plan imports into it.
	Importable(id namespace.MDSID) bool
	// Server returns the MDS with the given rank.
	Server(id namespace.MDSID) *mds.Server
	// Partition is the live subtree partition (balancers mutate it via
	// Carve/SplitEntry before submitting migrations).
	Partition() *namespace.Partition
	// Migrator accepts export tasks.
	Migrator() *mds.Migrator
	// Capacity is the theoretical maximum IOPS of a single MDS (the
	// paper's C).
	Capacity() float64
	// HeatDecay is the per-epoch popularity decay factor in (0, 1].
	HeatDecay() float64
	// Rand is a deterministic per-run random source for tie-breaking.
	Rand() *rng.Source
	// Ledger accounts control-plane message traffic.
	Ledger() *msg.Ledger
}

// LeaseView is the optional migrate-vs-replicate extension of View: a
// view that also knows which subtrees are served (or about to be
// served) under read leases. A leased subtree's read storm is already
// spread across its replica holders, so migrating it would revoke the
// leases and re-concentrate the load on the new authority — candidate
// enumeration skips such entries. Views without lease state (or with
// leases disabled) simply don't implement this, and enumeration is
// unchanged.
type LeaseView interface {
	// ReadLeased reports whether the subtree entry holds live read
	// leases, or qualifies for them and is waiting on standby syncs.
	ReadLeased(key namespace.FragKey) bool
}

// TenantView is the optional fairness extension of View: a view that
// also knows which subtrees are hot because of a tenant the admission
// buckets are already throttling. Migrating such a subtree would
// spread a noisy neighbour's over-quota load across more ranks — and
// drag everything co-located with it — instead of containing it where
// admission control caps it, so candidate enumeration skips these
// entries. Views without tenant state simply don't implement this, and
// enumeration is unchanged.
type TenantView interface {
	// TenantThrottled reports whether the subtree entry's heat is
	// dominated by a tenant whose token bucket throttled last epoch.
	TenantThrottled(key namespace.FragKey) bool
}

// Balancer decides, once per epoch, whether and what to migrate.
type Balancer interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Rebalance inspects the view and submits export tasks.
	Rebalance(v View)
}

// HeatPerIOPS converts a load amount in ops/sec into popularity (heat)
// units: heat accumulates one unit per op and decays once per epoch, so
// a steady load L contributes about L*epochTicks/(1-decay) heat.
func HeatPerIOPS(v View) float64 {
	d := v.HeatDecay()
	if d >= 1 {
		d = 0.99
	}
	return float64(v.EpochTicks()) / (1 - d)
}

// Loads returns the per-MDS loads (ops/sec) of the last epoch.
func Loads(v View) []float64 {
	out := make([]float64, v.NumMDS())
	for i := range out {
		out[i] = v.Server(namespace.MDSID(i)).CurrentLoad()
	}
	return out
}

// ImportableRanks returns the ranks that may receive subtrees (up and
// not draining), in rank order. This is the participant set balancers
// plan over: a draining rank's remaining load is the drain pump's
// problem, not the balancer's, and counting a rank that is leaving
// would both skew the average and invite imports into it.
func ImportableRanks(v View) []namespace.MDSID {
	out := make([]namespace.MDSID, 0, v.NumMDS())
	for i := 0; i < v.NumMDS(); i++ {
		if id := namespace.MDSID(i); v.Importable(id) {
			out = append(out, id)
		}
	}
	return out
}

// SmoothedLoads returns the mean of each MDS's last k epoch loads —
// the decayed view the CephFS built-in balancer effectively works from
// (its popularity counters age over minutes, not one epoch).
func SmoothedLoads(v View, k int) []float64 {
	out := make([]float64, v.NumMDS())
	for i := range out {
		h := v.Server(namespace.MDSID(i)).LoadHistory()
		if len(h) == 0 {
			continue
		}
		n := k
		if n > len(h) {
			n = len(h)
		}
		sum := 0.0
		for _, l := range h[len(h)-n:] {
			sum += l
		}
		out[i] = sum / float64(n)
	}
	return out
}

// LoadHistories returns each MDS's per-epoch load history.
func LoadHistories(v View) [][]float64 {
	out := make([][]float64, v.NumMDS())
	for i := range out {
		out[i] = v.Server(namespace.MDSID(i)).LoadHistory()
	}
	return out
}
