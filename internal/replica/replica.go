// Package replica implements warm-standby subtree replication: every
// partition entry (a replication group) has a primary — the rank the
// partition names authoritative — and up to R−1 standbys on other
// ranks that follow it through a shipped journal. The primary appends
// one journal record per ship interval carrying the heat delta of the
// governed subtree since the previous ship; synced standbys apply the
// outstanding record at the next ship, so a standby's heat is a
// faithful prefix of the primary's, at most one ship interval behind
// (the bounded lag promotion pays as its divergence cost). When the
// primary crashes, the cluster promotes the best surviving standby in
// place of the cold orphan takeover, seeding the new primary with the
// standby's applied heat; a background re-replicator restores R after
// a loss, drain, or decommission by syncing fresh standbys on the
// least-loaded eligible ranks.
//
// The manager is pure bookkeeping driven by the cluster's tick loop —
// it never touches servers or the partition itself, only the
// callbacks in Env — and it is deterministic: groups are visited in
// sorted key order, candidate ranks in rank order, and no step reads
// an RNG or depends on map iteration order. A nil *Manager is the
// disabled state (R=1): the cluster guards every call site, so a run
// without replication pays nothing on the tick path.
package replica

import (
	"fmt"
	"sort"

	"repro/internal/namespace"
)

// The manager's fixed rates and bounds. No command, experiment or benchmark
// workload varies them.
const (
	// maxSyncsPerRank bounds concurrent inbound syncs per rank so the
	// re-replicator cannot dogpile one idle survivor.
	maxSyncsPerRank = 4
	// shipEvery is the journal ship interval in ticks: the primary
	// appends one delta record (and synced standbys apply the
	// outstanding tail) every shipEvery ticks. It is also the bound on
	// standby lag, and therefore the state a promotion can lose.
	shipEvery int64 = 5
	// resyncRate is how many inodes one background re-replication sync
	// copies per tick.
	resyncRate int = 2000
	// PromoteTicks is the promotion latency after a crash: how long the
	// cluster waits before promoting standbys, modelling failure
	// detection plus a standby's replay of its applied journal prefix.
	// The cluster's RecoveryTicks must exceed it, or the cold takeover
	// fires first and promotion finds nothing to do.
	PromoteTicks = 2
)

// Policy parameterizes the replication manager.
type Policy struct {
	// R is the replication factor: one primary plus R−1 standbys per
	// subtree entry. R must be at least 2 — an R=1 cluster simply does
	// not attach a manager.
	R int
	// LeaseTicks, when positive, enables lease-based read-replica
	// authority: synced standbys of hot read-dominated subtrees are
	// granted read leases that let them serve reads for the subtree.
	// A lease lasts LeaseTicks ticks and dies early on any write to the
	// subtree, on migration (rebase), and on the holder crashing or
	// draining. Zero disables leases entirely.
	LeaseTicks int64
	// ReplicateReadFrac is the minimum read fraction (read heat / total
	// heat) a hot subtree needs before leases are granted — the
	// migrate-vs-replicate threshold. Subtrees below it stay on the
	// migration path. Only meaningful when LeaseTicks > 0.
	ReplicateReadFrac float64
}

// DefaultPolicy returns the policy used by the replication experiment
// and the -replication CLI default: R=2, no leases.
func DefaultPolicy() Policy {
	return Policy{R: 2}
}

// Validate rejects self-contradictory policies.
func (p Policy) Validate() error {
	if p.R < 2 {
		return fmt.Errorf("replica: R %d < 2 (an R=1 cluster attaches no manager)", p.R)
	}
	if p.LeaseTicks < 0 {
		return fmt.Errorf("replica: LeaseTicks %d < 0", p.LeaseTicks)
	}
	if p.LeaseTicks > 0 && !(0 < p.ReplicateReadFrac && p.ReplicateReadFrac <= 1) {
		return fmt.Errorf("replica: ReplicateReadFrac %v outside (0, 1]", p.ReplicateReadFrac)
	}
	return nil
}

// Standby is one replica follower. Fields are exported for the auditor
// and tests; only the manager mutates them.
type Standby struct {
	Rank namespace.MDSID
	// Applied is the journal sequence the standby has applied through.
	Applied uint64
	// Heat is the applied prefix sum — the warm state a promotion
	// installs.
	Heat float64
	// Syncing marks a standby still bulk-copying the subtree; it
	// fast-forwards to the journal head when SyncLeft reaches zero and
	// is not promotable until then.
	Syncing  bool
	SyncLeft int
	// SyncInodes is the bulk-copy size the sync started with.
	SyncInodes int
}

// Lease is one read lease: the holder rank may serve reads for the
// group's subtree through tick Expires. Exported for the auditor and
// tests; only the manager mutates leases.
type Lease struct {
	Rank namespace.MDSID
	// Expires is the last tick the lease is valid for; the expiry pump
	// drops leases with Expires <= tick at the end of that tick.
	Expires int64
}

// Group is one subtree replication group. Key and Primary are exported
// for the auditor and tests; only the manager mutates the group.
type Group struct {
	Key      namespace.FragKey
	Primary  namespace.MDSID
	Standbys []*Standby
	// Leases are the live read leases, kept sorted by holder rank.
	// Every holder is a synced standby of the group.
	Leases []Lease

	// Journal state: appended records so far and totalHeat, the sum of
	// their heat deltas. Each ship applies the newest record to every
	// synced standby before appending the next, so only that record can
	// be outstanding: tail is its delta while hasTail holds (from its
	// ship until a promotion resets the journal), and
	// prefix(appended−1) = totalHeat − tail.
	appended  uint64
	tail      float64
	hasTail   bool
	totalHeat float64
	// lastHeat is the delta basis: the primary's cumulative heat
	// reading at the last append. Reset when the primary changes — the
	// new primary's counters start fresh.
	lastHeat float64
}

// Appended returns the last appended journal sequence.
func (g *Group) Appended() uint64 { return g.appended }

// PrefixAt returns the journal's heat prefix sum through seq. ok is
// false when the journal no longer holds what lies past seq: seq is
// past the head, or more than the one outstanding record behind it.
func (g *Group) PrefixAt(seq uint64) (heat float64, ok bool) {
	switch {
	case seq == g.appended:
		return g.totalHeat, true
	case g.hasTail && seq+1 == g.appended:
		return g.totalHeat - g.tail, true
	}
	return 0, false
}

// leaseFor returns the group's lease held by rank r, or nil.
func (g *Group) leaseFor(r namespace.MDSID) *Lease {
	for i := range g.Leases {
		if g.Leases[i].Rank == r {
			return &g.Leases[i]
		}
	}
	return nil
}

// insertLease adds a lease keeping Leases sorted by holder rank, so
// holder enumeration is deterministic regardless of grant order.
func (g *Group) insertLease(l Lease) {
	i := sort.Search(len(g.Leases), func(i int) bool { return g.Leases[i].Rank >= l.Rank })
	g.Leases = append(g.Leases, Lease{})
	copy(g.Leases[i+1:], g.Leases[i:])
	g.Leases[i] = l
}

func (g *Group) hasStandby(r namespace.MDSID) bool {
	for _, sb := range g.Standbys {
		if sb.Rank == r {
			return true
		}
	}
	return false
}

// removeStandby deletes the standby at index i, preserving order.
func (g *Group) removeStandby(i int) {
	g.Standbys = append(g.Standbys[:i], g.Standbys[i+1:]...)
}

// rebase re-anchors the group on a new primary whose subtree counters
// start fresh (migration, cold takeover): the delta basis resets so
// the next ship charges only what the new primary has accumulated.
func (g *Group) rebase(to namespace.MDSID) {
	g.Primary = to
	g.lastHeat = 0
	for i := 0; i < len(g.Standbys); {
		if g.Standbys[i].Rank == to {
			g.removeStandby(i)
			continue
		}
		i++
	}
}

// Env is the cluster surface the manager pumps against. All callbacks
// are required except OnResync.
type Env struct {
	// Ranks is the current server count (rank IDs are [0, Ranks)).
	Ranks int
	// Eligible reports whether a rank may host a new standby (the
	// cluster's importable predicate: Active only — never a draining or
	// down rank). Every placement, resync target, and promotion gates on
	// it; there is deliberately no broader Up()-style liveness callback,
	// which would span Draining ranks and park replicas on a rank that
	// is actively leaving.
	Eligible func(namespace.MDSID) bool
	// Load is the rank's current load, the re-replicator's placement
	// signal.
	Load func(namespace.MDSID) float64
	// Stats returns the primary's cumulative (ops, heat) reading for a
	// governed subtree; its heat is the journal's delta source.
	Stats func(namespace.MDSID, namespace.FragKey) (int64, float64)
	// Inodes is the governed-inode count of a subtree, the bulk-copy
	// size a new sync starts with.
	Inodes func(namespace.FragKey) int
	// OnResync, when set, is called as each background sync completes.
	OnResync func(key namespace.FragKey, rank namespace.MDSID, inodes int)
}

// Manager tracks every replication group. Construct with NewManager; a
// nil *Manager is the disabled state and must not be pumped.
type Manager struct {
	pol    Policy
	groups map[namespace.FragKey]*Group
	// order is the deterministic iteration order (sorted keys, rebuilt
	// from the partition's sorted entries at every Reconcile).
	order []namespace.FragKey
	// syncCount is per-pump scratch: inbound syncs per rank.
	syncCount map[namespace.MDSID]int

	promotions     int64
	resyncsStarted int64
	resyncsDone    int64
	records        int64

	leasesGranted int64
	leasesRevoked int64
	leasesExpired int64
	// liveLeases is the lease count across every group, kept current at
	// each grant and drop: the engine asks it once per planned read.
	liveLeases int
}

// NewManager builds a manager; the policy must validate.
func NewManager(p Policy) (*Manager, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Manager{
		pol:       p,
		groups:    make(map[namespace.FragKey]*Group),
		syncCount: make(map[namespace.MDSID]int),
	}, nil
}

// MustManager is NewManager for callers with static policies.
func MustManager(p Policy) *Manager {
	m, err := NewManager(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Policy returns the manager's policy.
func (m *Manager) Policy() Policy { return m.pol }

// Groups returns how many replication groups exist.
func (m *Manager) Groups() int { return len(m.groups) }

// GroupOf returns the group for a subtree entry, or nil.
func (m *Manager) GroupOf(key namespace.FragKey) *Group { return m.groups[key] }

// ForEachGroup visits every group in sorted key order. The visitor
// must treat the group as read-only.
func (m *Manager) ForEachGroup(fn func(*Group)) {
	for _, k := range m.order {
		fn(m.groups[k])
	}
}

// Promotions returns how many standbys have been promoted to primary.
func (m *Manager) Promotions() int64 { return m.promotions }

// ResyncsStarted returns how many background syncs have been started.
func (m *Manager) ResyncsStarted() int64 { return m.resyncsStarted }

// ResyncsDone returns how many background syncs have completed.
func (m *Manager) ResyncsDone() int64 { return m.resyncsDone }

// Records returns how many journal records have been appended.
func (m *Manager) Records() int64 { return m.records }

// SyncingStandbys counts standbys currently mid-sync.
func (m *Manager) SyncingStandbys() int {
	n := 0
	for _, k := range m.order {
		for _, sb := range m.groups[k].Standbys {
			if sb.Syncing {
				n++
			}
		}
	}
	return n
}

// MaxLag returns the largest journal lag (appended − applied) across
// synced standbys — at most one record in the steady state.
func (m *Manager) MaxLag() uint64 {
	var max uint64
	for _, k := range m.order {
		g := m.groups[k]
		for _, sb := range g.Standbys {
			if sb.Syncing {
				continue
			}
			if lag := g.appended - sb.Applied; lag > max {
				max = lag
			}
		}
	}
	return max
}

// Reconcile aligns the group set with the partition: entries must be
// the partition's sorted entry list. New entries get fresh groups,
// vanished entries (absorbs, splits replacing a key) drop theirs, and
// an entry whose authority moved under the manager (migration, drain
// export, cold takeover) rebases its group on the new primary.
// Standbys failing retain (crashed, draining, decommissioned ranks)
// are dropped; the re-replicator restores R afterwards.
func (m *Manager) Reconcile(entries []namespace.Entry, retain func(namespace.MDSID) bool) {
	m.order = m.order[:0]
	for _, e := range entries {
		m.order = append(m.order, e.Key)
		g := m.groups[e.Key]
		if g == nil {
			m.groups[e.Key] = &Group{Key: e.Key, Primary: e.Auth}
			continue
		}
		if g.Primary != e.Auth {
			// Migration, drain export, or cold takeover: the subtree's
			// authority moved, so every read lease granted under the old
			// primary is invalid.
			g.rebase(e.Auth)
			m.clearLeases(g)
		}
		for i := 0; i < len(g.Standbys); {
			if !retain(g.Standbys[i].Rank) {
				g.removeStandby(i)
				continue
			}
			i++
		}
		m.pruneLeases(g)
	}
	if len(m.groups) != len(m.order) {
		keep := make(map[namespace.FragKey]bool, len(m.order))
		for _, k := range m.order {
			keep[k] = true
		}
		for k, g := range m.groups {
			if !keep[k] {
				m.liveLeases -= len(g.Leases)
				delete(m.groups, k)
			}
		}
	}
}

// DropRank removes the rank from every standby set (crash or drain:
// its replica state is gone or leaving). Groups where the rank is
// primary are untouched — promotion or the cold takeover reassigns
// those, and Reconcile rebases the groups afterwards.
func (m *Manager) DropRank(r namespace.MDSID) {
	for _, k := range m.order {
		g := m.groups[k]
		for i := 0; i < len(g.Standbys); {
			if g.Standbys[i].Rank == r {
				g.removeStandby(i)
				continue
			}
			i++
		}
		m.pruneLeases(g)
	}
}

// Promote selects and installs the best surviving standby of the given
// group as its new primary: synced, eligible, least-loaded (ties to
// the lowest rank). It returns the promoted rank, the warm heat the
// cluster should seed it with (the standby's applied prefix), and the
// journal lag the promotion lost (records appended but not applied —
// the divergence cost). ok is false when the group does not exist, is
// not led by dead, or has no promotable standby — the caller falls
// back to the cold takeover path.
func (m *Manager) Promote(key namespace.FragKey, dead namespace.MDSID,
	eligible func(namespace.MDSID) bool, load func(namespace.MDSID) float64) (to namespace.MDSID, heat float64, lag uint64, ok bool) {
	g := m.groups[key]
	if g == nil || g.Primary != dead {
		return 0, 0, 0, false
	}
	best := -1
	for i, sb := range g.Standbys {
		if sb.Syncing || !eligible(sb.Rank) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		li, lb := load(sb.Rank), load(g.Standbys[best].Rank)
		if li < lb || (li == lb && sb.Rank < g.Standbys[best].Rank) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, 0, false
	}
	sb := g.Standbys[best]
	to, heat, lag = sb.Rank, sb.Heat, g.appended-sb.Applied
	g.removeStandby(best)
	// The standby's applied prefix is the new baseline: the lost tail
	// died with the old primary. Remaining synced standbys sit at the
	// same prefix (the ship loop applies them in lockstep), so the
	// journal resets to the promoted state and the delta basis to the
	// heat the cluster seeds the new primary with.
	g.Primary = to
	g.hasTail = false
	g.totalHeat, g.lastHeat = sb.Heat, sb.Heat
	for _, other := range g.Standbys {
		if !other.Syncing {
			other.Applied, other.Heat = g.appended, sb.Heat
		}
	}
	// Crash invalidation: leases granted under the dead primary die with
	// it, including any held by the standby being promoted.
	m.clearLeases(g)
	m.promotions++
	return to, heat, lag, true
}

// Pump advances replication by one tick: ship the journal on the ship
// cadence, progress in-flight syncs, and start new syncs where a group
// is below R. Deterministic: sorted group order, rank-order candidate
// scans, no RNG.
func (m *Manager) Pump(tick int64, env Env) {
	if tick%shipEvery == 0 {
		m.ship(env)
	}
	m.advanceSyncs(env)
	m.rereplicate(env)
}

// ship runs one journal round per group: synced standbys apply the
// outstanding record (bringing them to the previous ship's state), and
// one fresh heat delta is appended from the primary's current reading.
// The delta is signed, so a reading that reset under us (rejoin,
// purge, migration dropping the cell) needs no special case.
func (m *Manager) ship(env Env) {
	for _, k := range m.order {
		g := m.groups[k]
		for _, sb := range g.Standbys {
			if sb.Syncing {
				continue
			}
			if g.hasTail && sb.Applied < g.appended {
				sb.Heat += g.tail
			}
			sb.Applied = g.appended
		}
		_, heat := env.Stats(g.Primary, g.Key)
		g.tail, g.hasTail = heat-g.lastHeat, true
		g.lastHeat = heat
		g.appended++
		g.totalHeat += g.tail
		m.records++
	}
}

// advanceSyncs progresses every in-flight sync by resyncRate inodes;
// completed syncs fast-forward to the journal head.
func (m *Manager) advanceSyncs(env Env) {
	for _, k := range m.order {
		g := m.groups[k]
		for _, sb := range g.Standbys {
			if !sb.Syncing {
				continue
			}
			sb.SyncLeft -= resyncRate
			if sb.SyncLeft > 0 {
				continue
			}
			sb.Syncing, sb.SyncLeft = false, 0
			sb.Applied, sb.Heat = g.appended, g.totalHeat
			m.resyncsDone++
			if env.OnResync != nil {
				env.OnResync(g.Key, sb.Rank, sb.SyncInodes)
			}
		}
	}
}

// clearLeases drops every lease on the group (write, migration, or
// crash invalidation), counting them as revoked.
func (m *Manager) clearLeases(g *Group) int {
	n := len(g.Leases)
	if n == 0 {
		return 0
	}
	g.Leases = g.Leases[:0]
	m.leasesRevoked += int64(n)
	m.liveLeases -= n
	return n
}

// pruneLeases drops leases whose holder is no longer a synced standby
// of the group (the rank crashed, started draining, or its replica was
// dropped and is re-syncing from scratch).
func (m *Manager) pruneLeases(g *Group) {
	for i := 0; i < len(g.Leases); {
		held := false
		for _, sb := range g.Standbys {
			if sb.Rank == g.Leases[i].Rank && !sb.Syncing {
				held = true
				break
			}
		}
		if !held {
			g.Leases = append(g.Leases[:i], g.Leases[i+1:]...)
			m.leasesRevoked++
			m.liveLeases--
			continue
		}
		i++
	}
}

// GrantLeases grants (or refreshes) read leases on every synced standby
// of the group through tick expires, and returns the newly granted
// holder ranks in rank order (refreshes are silent). A missing group or
// one with no synced standby is a no-op.
func (m *Manager) GrantLeases(key namespace.FragKey, expires int64) []namespace.MDSID {
	g := m.groups[key]
	if g == nil {
		return nil
	}
	var granted []namespace.MDSID
	for _, sb := range g.Standbys {
		if sb.Syncing {
			continue
		}
		if l := g.leaseFor(sb.Rank); l != nil {
			if expires > l.Expires {
				l.Expires = expires
			}
			continue
		}
		g.insertLease(Lease{Rank: sb.Rank, Expires: expires})
		granted = append(granted, sb.Rank)
		m.leasesGranted++
		m.liveLeases++
	}
	sort.Slice(granted, func(i, j int) bool { return granted[i] < granted[j] })
	return granted
}

// RevokeLeases drops every lease on the subtree (write invalidation)
// and returns how many were dropped.
func (m *Manager) RevokeLeases(key namespace.FragKey) int {
	g := m.groups[key]
	if g == nil {
		return 0
	}
	return m.clearLeases(g)
}

// ExpireLeases drops every lease whose term has ended (Expires <= tick)
// and returns how many expired.
func (m *Manager) ExpireLeases(tick int64) int {
	n := 0
	for _, k := range m.order {
		g := m.groups[k]
		for i := 0; i < len(g.Leases); {
			if g.Leases[i].Expires <= tick {
				g.Leases = append(g.Leases[:i], g.Leases[i+1:]...)
				m.leasesExpired++
				m.liveLeases--
				n++
				continue
			}
			i++
		}
	}
	return n
}

// Leases returns the live leases on the subtree, in holder-rank order.
// Shared storage, valid until the next grant, revoke or expiry: the
// engine routes reads off it while planning, and the lease set never
// changes mid-phase. Callers must not modify it.
func (m *Manager) Leases(key namespace.FragKey) []Lease {
	if g := m.groups[key]; g != nil {
		return g.Leases
	}
	return nil
}

// LiveLeases returns the live lease count across every group.
func (m *Manager) LiveLeases() int { return m.liveLeases }

// LeasesGranted returns how many leases have ever been granted.
func (m *Manager) LeasesGranted() int64 { return m.leasesGranted }

// LeasesRevoked returns how many leases died early (write, migration,
// crash, or drain invalidation).
func (m *Manager) LeasesRevoked() int64 { return m.leasesRevoked }

// LeasesExpired returns how many leases ran out their full term.
func (m *Manager) LeasesExpired() int64 { return m.leasesExpired }

// rereplicate starts background syncs for groups below R, placing each
// new standby on the least-loaded eligible rank (ties to the lowest
// rank) that is not already in the group and has sync capacity left.
func (m *Manager) rereplicate(env Env) {
	clear(m.syncCount)
	for _, k := range m.order {
		for _, sb := range m.groups[k].Standbys {
			if sb.Syncing {
				m.syncCount[sb.Rank]++
			}
		}
	}
	for _, k := range m.order {
		g := m.groups[k]
		for len(g.Standbys) < m.pol.R-1 {
			best := namespace.MDSID(-1)
			bestLoad := 0.0
			for r := 0; r < env.Ranks; r++ {
				id := namespace.MDSID(r)
				if id == g.Primary || g.hasStandby(id) || !env.Eligible(id) {
					continue
				}
				if m.syncCount[id] >= maxSyncsPerRank {
					continue
				}
				if l := env.Load(id); best < 0 || l < bestLoad {
					best, bestLoad = id, l
				}
			}
			if best < 0 {
				break
			}
			inodes := env.Inodes(g.Key)
			if inodes < 1 {
				inodes = 1
			}
			g.Standbys = append(g.Standbys, &Standby{
				Rank: best, Syncing: true, SyncLeft: inodes, SyncInodes: inodes,
			})
			m.syncCount[best]++
			m.resyncsStarted++
		}
	}
}
