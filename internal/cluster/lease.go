// Lease-based hot-read replication: the cluster grants short read
// leases on the synced standbys of hot, read-dominated subtrees, so a
// shared-directory read storm is served by up to R ranks instead of
// queueing on the one authoritative server. The replica manager owns
// lease truth (grant/revoke/expiry, always on synced standbys only);
// this file is the control loop around it — the per-tick grant pass, the
// epoch-close carve pass, and the write/migration/crash invalidation
// plumbing — and everyone who routes or invalidates reads the manager's
// lease set directly. A cluster without leases (LeaseTicks 0, the
// default) never has a live lease and pays one comparison per read.
//
// Order: grants and carves walk the partition's sorted entry snapshot;
// a write revokes its subtree's leases where it is served. Reads are
// routed to lease holders at plan, before any serve of the phase, so a
// revoke moves only the next phase's routing.
package cluster

import (
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/obs"
)

const (
	// leaseHotFrac is the grant threshold: a subtree qualifies for read
	// leases when its epoch heat reaches this fraction of one rank's
	// epoch capacity — i.e. it alone keeps a server half-busy, so
	// spreading its reads across standbys buys real headroom.
	leaseHotFrac = 0.5
	// leaseCarveDepth bounds the carve pass's descent from a qualifying
	// entry toward the deepest hot read-dominated directory.
	leaseCarveDepth = 8
	// leaseCarvesPerEpoch bounds how many new subtree entries the carve
	// pass creates per epoch close, so a pathological namespace cannot
	// explode the partition in one epoch.
	leaseCarvesPerEpoch = 4
)

// leasesEnabled reports whether the lease machinery is configured on.
func (c *Cluster) leasesEnabled() bool {
	return c.rep != nil && c.rep.Policy().LeaseTicks > 0
}

// leased reports whether the subtree holds a live read lease.
func (c *Cluster) leased(key namespace.FragKey) bool {
	return c.rep != nil && c.rep.LiveLeases() != 0 && len(c.rep.Leases(key)) != 0
}

// revokeLease drops every lease on the subtree — the write-invalidation
// path, called where a write is served. Idempotent: on a subtree
// without a live lease it is a no-op.
func (c *Cluster) revokeLease(key namespace.FragKey) {
	if !c.leased(key) {
		return
	}
	n := c.rep.RevokeLeases(key)
	// The auditor checks that a write-invalidated subtree holds zero
	// live leases at tick end; the grant pass also skips these keys
	// this tick (the write has not shipped to the standbys yet).
	c.leaseWriteRevoked = append(c.leaseWriteRevoked, key)
	if c.bus.Enabled(obs.EvLeaseRevoke) {
		f := obs.AcquireF()
		f["dir"], f["frag"] = key.Dir, key.Frag.String()
		f["n"], f["reason"] = n, "write"
		c.bus.EmitPooled(obs.Event{Tick: c.tick, Type: obs.EvLeaseRevoke, Fields: f})
	}
}

// noteRevoked reports n leases that died with a rank (crash, drain) or
// with an authority move (migrate; rank < 0, no rank field).
func (c *Cluster) noteRevoked(rank int, n int64, reason string) {
	if n > 0 && c.bus.Enabled(obs.EvLeaseRevoke) {
		f := obs.AcquireF()
		if rank >= 0 {
			f["rank"] = rank
		}
		f["n"], f["reason"] = n, reason
		c.bus.EmitPooled(obs.Event{Tick: c.tick, Type: obs.EvLeaseRevoke, Fields: f})
	}
}

// dropRankReplicas retires a crashed or draining rank's replica state:
// it leaves every standby set, and the read leases it held die with it.
func (c *Cluster) dropRankReplicas(id namespace.MDSID, reason string) {
	before := c.rep.LeasesRevoked()
	c.rep.DropRank(id)
	c.noteRevoked(int(id), c.rep.LeasesRevoked()-before, reason)
}

// writeRevokedThisTick reports whether the key's leases were write-
// invalidated during the current tick's serve rounds. The per-tick list
// is tiny (one entry per written leased subtree), so a linear scan
// beats a map here.
func (c *Cluster) writeRevokedThisTick(key namespace.FragKey) bool {
	for _, k := range c.leaseWriteRevoked {
		if k == key {
			return true
		}
	}
	return false
}

// heatAcross sums a (total, read) heat reading across the entry's
// primary and its current lease holders. Lease-served reads land on the
// holders' counters, so reading the primary alone would watch a leased
// subtree "cool down" and let its leases lapse every term.
func (c *Cluster) heatAcross(e namespace.Entry, heat func(*mds.Server) (total, read float64)) (total, read float64) {
	total, read = heat(c.servers[e.Auth])
	for _, l := range c.rep.Leases(e.Key) {
		if h := l.Rank; int(h) < len(c.servers) && h != e.Auth {
			t, r := heat(c.servers[h])
			total += t
			read += r
		}
	}
	return total, read
}

// subtreeHeatRW is the subtree key's heat across primary and holders.
func (c *Cluster) subtreeHeatRW(e namespace.Entry) (total, read float64) {
	return c.heatAcross(e, func(s *mds.Server) (float64, float64) { return s.KeyHeatRW(e.Key) })
}

// dirHeatRW is a directory's heat across the servers that may have
// served it under the governing entry.
func (c *Cluster) dirHeatRW(e namespace.Entry, dir *namespace.Inode) (total, read float64) {
	return c.heatAcross(e, func(s *mds.Server) (float64, float64) { return s.DirHeatRW(dir) })
}

// leaseWorthy is the bar a (total, read) heat reading must clear for
// read leases: hot (see leaseHotFrac) and read-dominated (the policy's
// migrate-vs-replicate threshold).
func (c *Cluster) leaseWorthy(total, read float64) bool {
	hot := leaseHotFrac * float64(c.cfg.Capacity) * float64(c.cfg.EpochTicks)
	return total >= hot && read >= c.rep.Policy().ReplicateReadFrac*total
}

// leaseQualifies reports whether a subtree entry currently qualifies
// for read leases: live authority, not mid-migration, not write-
// invalidated this tick, and lease-worthy heat. It returns the read
// fraction the entry qualified with.
func (c *Cluster) leaseQualifies(e namespace.Entry) (readFrac float64, ok bool) {
	if !c.up(e.Auth) || c.migrator.IsFrozen(e.Key) || c.writeRevokedThisTick(e.Key) {
		return 0, false
	}
	total, read := c.subtreeHeatRW(e)
	if !c.leaseWorthy(total, read) {
		return 0, false
	}
	return read / total, true
}

// leaseGrants grants (or refreshes) read leases on every qualifying
// subtree's synced standbys. It runs every tick inside the replication
// pump — not just at epoch close — so a freshly carved or re-replicated
// hot subtree starts serving from its standbys the tick its syncs
// finish, instead of queueing on one rank for the rest of the epoch.
// Refreshes are silent in the manager, so the steady state costs one
// Expires bump per holder per tick and emits nothing.
func (c *Cluster) leaseGrants(tick int64) {
	until := tick + c.rep.Policy().LeaseTicks
	for _, e := range c.part.Entries() {
		readFrac, ok := c.leaseQualifies(e)
		if !ok {
			continue
		}
		granted := c.rep.GrantLeases(e.Key, until)
		if len(granted) > 0 && c.bus.Enabled(obs.EvLeaseGrant) {
			ranks := make([]int, len(granted))
			for i, r := range granted {
				ranks[i] = int(r)
			}
			f := obs.AcquireF()
			f["dir"], f["frag"] = e.Key.Dir, e.Key.Frag.String()
			f["ranks"], f["until"], f["read_frac"] = ranks, until, readFrac
			c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvLeaseGrant, Fields: f})
		}
	}
}

// leaseStep is the epoch-close carve pass: descend into hot
// read-dominated directories and carve them into their own subtree
// entries, so the next reconcile builds them tight replication groups
// and the per-tick grant pass can lease exactly the storm's directory
// instead of a whole rank's subtree. It runs before the balancer's
// Rebalance so migration planning sees the carved entries.
func (c *Cluster) leaseStep() {
	carves := leaseCarvesPerEpoch
	// Entries() is a fresh sorted snapshot, so carving inside the loop
	// is safe; entries carved this pass get groups at this tick's
	// reconcile and leases as soon as their standbys sync.
	for _, e := range c.part.Entries() {
		if carves == 0 {
			break
		}
		if _, ok := c.leaseQualifies(e); !ok {
			continue
		}
		if c.leaseCarve(e) {
			carves--
		}
	}
}

// leaseCarve descends from the entry's root directory through hot
// read-dominated child directories to the deepest one that qualifies,
// and carves it into its own subtree entry. The point is scope: a lease
// on a whole rank's entry (often the root early in a run) serves reads
// correctly but freezes a huge subtree out of migration; carving
// converges the lease onto the storm's actual directory. Directories
// that are already subtree roots are never descended into (their own
// entries qualify on their own), matching Partition.Carve's contract.
func (c *Cluster) leaseCarve(e namespace.Entry) bool {
	cur := c.tree.Get(e.Key.Dir)
	if cur == nil {
		return false
	}
	frag := e.Key.Frag
	var target *namespace.Inode
	for depth := 0; depth < leaseCarveDepth; depth++ {
		var next *namespace.Inode
		var nextHeat float64
		for _, ch := range cur.ChildrenInFrag(frag) {
			if !ch.IsDir || len(c.part.EntriesAt(ch.Ino)) != 0 {
				continue
			}
			total, read := c.dirHeatRW(e, ch)
			if !c.leaseWorthy(total, read) {
				continue
			}
			if next == nil || total > nextHeat {
				next, nextHeat = ch, total
			}
		}
		if next == nil {
			break
		}
		target, cur = next, next
		// Below the entry's root, the whole hash space is in scope.
		frag = namespace.WholeFrag
	}
	if target == nil {
		return false
	}
	total, read := c.dirHeatRW(e, target)
	ne := c.part.Carve(target)
	// Transfer the directory's accumulated heat onto the new key: a
	// cold carve would fail the hot/read-dominance checks and be
	// absorbed back by the balancer's housekeeping before its
	// replication group ever syncs.
	c.servers[ne.Auth].SeedHeatRW(ne.Key, total, read)
	return true
}

// LeaseServes returns how many ops were served under a read lease by a
// non-authoritative holder rank.
func (c *Cluster) LeaseServes() int64 { return c.leaseServes }
