// Warm-standby replication wiring: the cluster pumps the replica
// manager at the end of every tick (reconcile against the partition,
// ship the journal, advance and start background syncs) and promotes
// surviving standbys shortly after a crash, falling back to the cold
// orphan takeover for subtrees with no promotable replica. Everything
// here is guarded by c.rep != nil, so a cluster without replication
// pays nothing on the tick path.
package cluster

import (
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
)

// initReplication builds the manager's environment closures once and
// seeds the group set from the current partition.
func (c *Cluster) initReplication() {
	c.repEnv = replica.Env{
		// Eligibility is the importable predicate — Active ranks only.
		// Using Up() here would span Draining ranks (Up = Active ||
		// Draining since the elastic lifecycle landed) and let standbys
		// be placed on, resynced to, or promoted onto a rank that is
		// actively leaving the cluster.
		Eligible: c.importable,
		Load:     c.loadOf,
		Stats: func(id namespace.MDSID, key namespace.FragKey) (int64, float64) {
			return c.servers[id].KeyStats(key)
		},
		Inodes: c.part.GovernedInodes,
		OnResync: func(key namespace.FragKey, rank namespace.MDSID, inodes int) {
			if c.bus.Enabled(obs.EvRereplicate) {
				f := obs.AcquireF()
				f["dir"], f["frag"] = key.Dir, key.Frag.String()
				f["rank"], f["inodes"] = int(rank), inodes
				c.bus.Emit(obs.Event{Tick: c.tick, Type: obs.EvRereplicate, Fields: f})
			}
		},
	}
	c.rep.Reconcile(c.part.Entries(), c.importable)
	c.repVersion = c.part.Version()
}

func (c *Cluster) loadOf(id namespace.MDSID) float64 {
	return c.servers[id].CurrentLoad()
}

// pumpReplication runs at the end of every tick, after the epoch close
// (so balancer carves and drain exports from this tick are already in
// the partition): re-anchor the groups if the partition changed, then
// ship/sync/re-replicate. At epoch close it also emits the journal-lag
// snapshot.
func (c *Cluster) pumpReplication(tick int64) {
	if v := c.part.Version(); v != c.repVersion {
		before := c.rep.LeasesRevoked()
		c.rep.Reconcile(c.part.Entries(), c.importable)
		c.repVersion = v
		// A reconcile after an authority move rebases the group and
		// clears its leases (the new primary's standbys must re-earn
		// them); surface those as migrate-revokes.
		c.noteRevoked(-1, c.rep.LeasesRevoked()-before, "migrate")
	}
	c.repEnv.Ranks = len(c.servers)
	c.rep.Pump(tick, c.repEnv)
	if c.leasesEnabled() {
		// After the journal pump: expire leases whose term ended this
		// tick, then grant (or refresh) on the subtrees that qualify now.
		c.rep.ExpireLeases(tick)
		c.leaseGrants(tick)
	}
	if (tick+1)%int64(c.cfg.EpochTicks) == 0 && c.bus.Enabled(obs.EvJournalLag) {
		f := obs.AcquireF()
		f["groups"], f["max_lag"] = c.rep.Groups(), c.rep.MaxLag()
		f["syncing"], f["records"] = c.rep.SyncingStandbys(), c.rep.Records()
		c.bus.Emit(obs.Event{Tick: tick, Type: obs.EvJournalLag, Fields: f})
	}
}

// promoteReplicas is the warm failover pass, scheduled PromoteTicks
// after a crash (well inside the RecoveryTicks cold window): every
// subtree the dead rank still governs moves to its best surviving
// standby, which is seeded with the standby's applied journal prefix
// of heat. Subtrees without a promotable replica stay orphaned for the
// cold takeover. Stale invocations — the rank rejoined, or crashed
// again later — are no-ops, mirroring reassignOrphans.
func (c *Cluster) promoteReplicas(dead namespace.MDSID, crashedAt int64) {
	if _, ok := c.liveOutage(dead, crashedAt); !ok {
		return
	}
	entries := c.part.EntriesOf(dead)
	promoted := 0
	for _, e := range entries {
		to, heat, lag, ok := c.rep.Promote(e.Key, dead, c.importable, c.loadOf)
		if !ok {
			continue
		}
		c.part.SetAuth(e.Key, to)
		c.servers[to].SeedHeatRW(e.Key, heat, 0)
		promoted++
		if c.bus.Enabled(obs.EvReplicaPromote) {
			f := obs.AcquireF()
			f["dir"], f["frag"] = e.Key.Dir, e.Key.Frag.String()
			f["from"], f["to"] = int(dead), int(to)
			f["heat"], f["lag"], f["waited"] = heat, lag, c.tick-crashedAt
			c.bus.Emit(obs.Event{Tick: c.tick, Type: obs.EvReplicaPromote, Fields: f})
		}
	}
	if promoted == 0 {
		return
	}
	c.rec.AddRecovery(metrics.RecoveryEvent{
		Rank:         int(dead),
		CrashTick:    crashedAt,
		ReassignTick: c.tick,
		Entries:      promoted,
		Warm:         true,
	})
	if len(c.part.EntriesOf(dead)) == 0 {
		// Everything promoted warm: nothing is orphaned anymore, so stop
		// the outage clock now. The scheduled cold takeover no-ops via
		// its crash-tick guard.
		delete(c.outages, dead)
	}
}

// Replicas returns the attached replication manager (nil when
// replication is disabled).
func (c *Cluster) Replicas() *replica.Manager { return c.rep }

// Promotions returns how many subtree entries have been warm-promoted
// after crashes: the replication manager's count (0 without one).
func (c *Cluster) Promotions() int64 {
	if c.rep == nil {
		return 0
	}
	return c.rep.Promotions()
}
