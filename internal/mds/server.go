// Package mds models the metadata servers of the cluster: bounded
// per-tick service capacity, request accounting, the access statistics
// the balancers read (cutting-window trace for Lunule, decayed
// popularity/heat for the CephFS built-in policy), and the subtree
// migration engine with its two-phase-commit cost model (transfer
// latency, freeze windows, bounded concurrency, and queueing).
package mds

import (
	"repro/internal/namespace"
	"repro/internal/trace"
)

// RankState is the lifecycle state of an MDS rank.
type RankState uint8

// Rank lifecycle states. Legal transitions:
//
//	Active   -> Down            (Crash)
//	Active   -> Draining        (StartDrain: elastic scale-down begins)
//	Draining -> Down            (Crash mid-drain; the drain is cancelled)
//	Draining -> Decommissioned  (Decommission: the rank governs nothing)
//	Down     -> Active          (Rejoin)
//
// Decommissioned is terminal: the rank's slot stays in the server list
// (rank IDs are stable indices) but it never serves, imports, or
// rejoins again.
const (
	RankActive RankState = iota
	RankDown
	RankDraining
	RankDecommissioned
)

// String renders the state for events and audit messages.
func (s RankState) String() string {
	switch s {
	case RankActive:
		return "active"
	case RankDown:
		return "down"
	case RankDraining:
		return "draining"
	case RankDecommissioned:
		return "decommissioned"
	default:
		return "invalid"
	}
}

// Server is one metadata server (one MDS rank).
type Server struct {
	ID       namespace.MDSID
	Capacity int // metadata ops the server can process per tick

	budget      int   // remaining capacity in the current tick
	opsTick     int   // ops served this tick
	opsEpoch    int64 // ops served this epoch
	opsTotal    int64 // ops served overall
	fwdTotal    int64 // forwarding units served overall
	stallsTotal int64 // requests stalled here (no budget or frozen target)

	state   RankState // lifecycle state (see RankState)
	crashes int64     // lifecycle transitions up -> down

	collector      *trace.Collector
	historyWindows int

	heatDecay float64
	heat      *heatTable
	// tenants is the tenant dimension of the heat table's per-tenant
	// split (0 = single-tenant). Kept on the server so Rejoin, which
	// rebuilds the table, can re-apply it.
	tenants int

	loadHistory []float64 // per-epoch load (ops/sec), appended by EndEpoch
}

// NewServer creates an MDS with the given per-tick capacity. The
// collector retains historyWindows cutting windows; heatDecay in (0,1]
// is the per-epoch multiplicative decay of the popularity counters
// (CephFS-style exponential aging).
func NewServer(id namespace.MDSID, capacity, historyWindows int, heatDecay float64) *Server {
	if capacity <= 0 {
		panic("mds: capacity must be positive")
	}
	if heatDecay <= 0 || heatDecay > 1 {
		panic("mds: heat decay must be in (0, 1]")
	}
	return &Server{
		ID:             id,
		Capacity:       capacity,
		collector:      trace.NewCollector(historyWindows),
		historyWindows: historyWindows,
		heatDecay:      heatDecay,
		heat:           newHeatTable(heatDecay),
	}
}

// BeginTick resets the per-tick service budget. A down or
// decommissioned server gets no budget; a draining one keeps serving
// at full capacity until its last subtree has been exported.
func (s *Server) BeginTick() {
	s.opsTick = 0
	s.budget = s.Capacity
	if s.state == RankDown || s.state == RankDecommissioned {
		s.budget = 0
	}
}

// SetCapacity changes the server's per-tick capacity (heterogeneous
// hardware, degradation injection). It takes effect at the next tick.
// Non-positive capacities are clamped to 1; the return values make the
// clamp explicit (applied capacity, whether clamping happened), so
// fault scripts with typo'd values cannot silently degenerate to a
// 1-op/s server without the caller noticing.
func (s *Server) SetCapacity(capacity int) (applied int, clamped bool) {
	if capacity < 1 {
		capacity = 1
		clamped = true
	}
	s.Capacity = capacity
	return capacity, clamped
}

// Up reports whether the server is alive (serving requests). A
// draining rank is still up — it serves everything it governs until
// the drain empties it.
func (s *Server) Up() bool { return s.state == RankActive || s.state == RankDraining }

// State returns the rank's lifecycle state.
func (s *Server) State() RankState { return s.state }

// Draining reports whether the rank is being gracefully emptied.
func (s *Server) Draining() bool { return s.state == RankDraining }

// Decommissioned reports whether the rank has been retired.
func (s *Server) Decommissioned() bool { return s.state == RankDecommissioned }

// StartDrain moves an active rank into Draining: it keeps serving but
// must no longer be chosen as an import target; the cluster bulk-
// exports everything it governs. Returns false unless the rank was
// Active.
func (s *Server) StartDrain() bool {
	if s.state != RankActive {
		return false
	}
	s.state = RankDraining
	return true
}

// Decommission retires a drained rank: it serves nothing, imports
// nothing, and never rejoins. Returns false unless the rank was
// Draining (a rank must be emptied before it is retired; the caller
// checks it governs nothing).
func (s *Server) Decommission() bool {
	if s.state != RankDraining {
		return false
	}
	s.state = RankDecommissioned
	s.budget = 0
	return true
}

// Crash takes the server down: its remaining budget is voided and it
// serves nothing until Rejoin. A draining rank can crash (the drain is
// cancelled; failover takes over its remaining subtrees). Crashing a
// down or decommissioned server is a no-op.
func (s *Server) Crash() {
	if !s.Up() {
		return
	}
	s.state = RankDown
	s.budget = 0
	s.crashes++
}

// Rejoin brings a crashed server back up. Its heat and trace
// statistics are invalidated — a restarted MDS has an empty cache and
// an empty journal of recent accesses, so stale pre-crash popularity
// must not steer post-recovery balancing — and its load history is
// cleared for the same reason. Rejoining a server that is not down
// (including a decommissioned one) is a no-op.
func (s *Server) Rejoin() {
	if s.state != RankDown {
		return
	}
	s.state = RankActive
	s.collector = trace.NewCollector(s.historyWindows)
	s.heat = newHeatTable(s.heatDecay)
	s.heat.setTenants(s.tenants)
	s.loadHistory = nil
	s.opsEpoch = 0
}

// Crashes returns how many times the server went down.
func (s *Server) Crashes() int64 { return s.crashes }

// HasBudget reports whether the server can accept more work this tick.
func (s *Server) HasBudget() bool { return s.budget > 0 }

// RemainingBudget returns the number of ops the server can still accept
// this tick. The engine reads it once a tick, before admission, as the
// pool admission draws from.
func (s *Server) RemainingBudget() int { return s.budget }

// AddForwardCharges charges n relays made through this server, at the
// moment they are made. The engine admits a relay hop only while
// HasBudget holds and then charges every hop of the chain; a chain can
// pass one server twice, so the charge floors the budget at zero (a
// relay hop never owes work into the next tick).
func (s *Server) AddForwardCharges(n int) {
	if n <= 0 {
		return
	}
	s.budget -= n
	if s.budget < 0 {
		s.budget = 0
	}
	s.fwdTotal += int64(n)
}

// AddStalls counts n requests that could not be served here this tick.
func (s *Server) AddStalls(n int64) { s.stallsTotal += n }

// Serve processes one metadata access to in, governed by subtree entry
// e, during the given epoch. It returns false without side effects when
// the server is saturated this tick. The access is charged as a read;
// callers that know the op kind use ServeDeferVisit directly.
func (s *Server) Serve(e namespace.Entry, in *namespace.Inode, epoch int64) bool {
	ok, first := s.ServeDeferVisit(e, in, epoch, false)
	if first {
		in.MarkVisited()
	}
	return ok
}

// ServeDeferVisit is Serve with the first-visit side effect handed back
// to the caller: firstVisit=true means the inode was accessed for the
// first time ever and the caller owes it a MarkVisited. write classifies the access for the read/write heat split; the total
// heat charged is identical either way.
func (s *Server) ServeDeferVisit(e namespace.Entry, in *namespace.Inode, epoch int64, write bool) (ok, firstVisit bool) {
	if s.budget <= 0 {
		return false, false
	}
	s.budget--
	s.opsTick++
	s.opsEpoch++
	s.opsTotal++
	firstVisit = s.collector.RecordNoVisit(e.Key, in, epoch)
	nRead := 1
	if write {
		nRead = 0
	}
	s.heat.charge(e.Key, in.Parent, 1, nRead).ops++
	return true, firstVisit
}

// ConsumeGroupBudget charges one budget unit for a commit group — the
// group-commit amortization: a group of up to BatchSize batched ops
// costs the server what one synchronous op would. Returns false without
// charging when the server is saturated this tick.
func (s *Server) ConsumeGroupBudget() bool {
	if s.budget <= 0 {
		return false
	}
	s.budget--
	return true
}

// AddOps credits n already-admitted batch ops to the serve counters
// without consuming budget (the budget was charged per commit group, not
// per op). The per-op trace-collector and latency work still happens in
// the engine; only the counters are batched here.
func (s *Server) AddOps(n int) {
	if n <= 0 {
		return
	}
	s.opsTick += n
	s.opsEpoch += int64(n)
	s.opsTotal += int64(n)
}

// AddHeatRun charges n accesses, nRead of which were reads, under one
// parent directory in a single weighted walk — the batch path's
// amortized form of the per-op charge. in is a representative inode of
// the run (all ops in the run share in.Parent and the governing key).
func (s *Server) AddHeatRun(key namespace.FragKey, in *namespace.Inode, n, nRead int) {
	if n <= 0 {
		return
	}
	s.heat.charge(key, in.Parent, n, nRead).ops += int64(n)
}

// EndEpoch closes the current epoch: it computes the epoch's load in
// ops/sec (epochTicks ticks of one second each), appends it to the load
// history, advances the lazy heat-decay epoch, and resets the epoch
// counter. It returns the epoch load. Unlike the original O(table)
// multiplicative sweep, closing an epoch is O(1): counters carry an
// epoch stamp and reads decay them as heat × decay^(now−stamp); an
// incremental purge sweeps expired cells every heatPurgeEvery epochs.
func (s *Server) EndEpoch(epochTicks int) float64 {
	if epochTicks <= 0 {
		epochTicks = 1
	}
	load := float64(s.opsEpoch) / float64(epochTicks)
	s.loadHistory = append(s.loadHistory, load)
	s.opsEpoch = 0
	s.heat.endEpoch()
	return load
}

// Collector returns the server's cutting-window trace collector.
func (s *Server) Collector() *trace.Collector { return s.collector }

// HeatOfKey returns the decayed popularity of a subtree entry.
func (s *Server) HeatOfKey(key namespace.FragKey) float64 {
	c := s.heat.byKey[key]
	if c == nil {
		return 0
	}
	return s.heat.value(c)
}

// KeyStats returns the subtree entry's cumulative raw access count and
// its decayed popularity — the replication journal's per-ship delta
// source. The ops counter resets when the cell is dropped (migration)
// or the table is wiped (rejoin); the journal detects the reset by the
// counter going backwards.
func (s *Server) KeyStats(key namespace.FragKey) (ops int64, heat float64) {
	c := s.heat.byKey[key]
	if c == nil {
		return 0, 0
	}
	return c.ops, s.heat.value(c)
}

// SeedHeat installs warm popularity for a subtree entry — the applied
// journal prefix a promoted standby carries — so the balancer sees the
// promoted subtree's history instead of a cold zero. Non-positive
// seeds are ignored. The seed lands in the write side (read component
// 0): a promoted subtree re-earns its read-dominance from live traffic
// before leases re-form.
func (s *Server) SeedHeat(key namespace.FragKey, heat float64) { s.SeedHeatRW(key, heat, 0) }

// SeedHeatRW installs warm popularity with an explicit read component.
// The lease controller's carve pass uses it to transfer a directory's
// accumulated (total, read) heat onto the freshly carved subtree key:
// without the transfer the new key starts cold, fails the hot and
// read-dominance checks, and is absorbed right back by housekeeping
// before a lease can form. The read component is clamped to the total
// to preserve the rval <= val invariant.
func (s *Server) SeedHeatRW(key namespace.FragKey, heat, read float64) {
	if heat <= 0 {
		return
	}
	c := s.heat.keyCell(key)
	v, rv := s.heat.decayed(c)
	c.val, rv = v+heat, rv+read
	if rv > c.val {
		rv = c.val
	}
	c.rval = rv
	c.epoch = s.heat.epoch
}

// KeyHeatRW returns a subtree entry's decayed popularity split into the
// total and its read component (read <= total). The ratio read/total is
// the migrate-vs-replicate signal: read-dominated hot subtrees get
// read leases, write-hot ones migrate.
func (s *Server) KeyHeatRW(key namespace.FragKey) (total, read float64) {
	c := s.heat.byKey[key]
	if c == nil {
		return 0, 0
	}
	return s.heat.decayed(c)
}

// DirHeatRW returns a directory's decayed popularity split into the
// total and its read component — the lease controller's carve signal.
func (s *Server) DirHeatRW(dir *namespace.Inode) (total, read float64) {
	return s.heat.dirHeat(dir)
}

// HeatOfDir returns the decayed popularity accumulated at a directory.
func (s *Server) HeatOfDir(dir *namespace.Inode) float64 {
	total, _ := s.heat.dirHeat(dir)
	return total
}

// HeatEntries returns how many subtree entries currently carry
// non-negligible heat — the heat-table size of the per-rank trace
// timeline.
func (s *Server) HeatEntries() int { return s.heat.entries() }

// MinHeat returns the smallest decayed popularity value across every
// heat cell (key and directory), or 0 when the table is empty. Heat
// only accumulates accesses and decays multiplicatively, so a negative
// reading means counter corruption; the state auditor checks it.
func (s *Server) MinHeat() float64 {
	return s.heat.minValue()
}

// DropSubtreeStats clears trace and heat state for a subtree that has
// been migrated away.
func (s *Server) DropSubtreeStats(key namespace.FragKey) {
	s.collector.Forget(key)
	s.heat.dropKey(key)
}

// EnableTenants gives the server's heat table a per-tenant dimension
// of n tenants. Survives Rejoin (the rebuilt table re-applies it).
func (s *Server) EnableTenants(n int) {
	s.tenants = n
	s.heat.setTenants(n)
}

// AddTenantHeat attributes n served accesses under the key to tenant
// t's share of the key's heat. No-op on single-tenant servers or
// out-of-range tenants, so call sites need no guard.
func (s *Server) AddTenantHeat(key namespace.FragKey, t, n int) {
	if s.tenants == 0 || t < 0 || t >= s.tenants || n <= 0 {
		return
	}
	s.heat.bumpTenant(key, t, n)
}

// DominantTenant returns the tenant responsible for more than half of
// the key's tenant-attributed heat, or -1 when no tenant dominates
// (including on single-tenant servers).
func (s *Server) DominantTenant(key namespace.FragKey) int {
	if s.tenants == 0 {
		return -1
	}
	return s.heat.dominantTenant(key)
}

// LoadHistory returns the per-epoch load series (ops/sec). The returned
// slice is shared; callers must not modify it.
func (s *Server) LoadHistory() []float64 { return s.loadHistory }

// CurrentLoad returns the most recent completed epoch's load, or 0.
func (s *Server) CurrentLoad() float64 {
	if len(s.loadHistory) == 0 {
		return 0
	}
	return s.loadHistory[len(s.loadHistory)-1]
}

// OpsThisTick returns the ops served in the current tick so far.
func (s *Server) OpsThisTick() int { return s.opsTick }

// OpsTotal returns the total metadata ops served.
func (s *Server) OpsTotal() int64 { return s.opsTotal }

// Forwards returns the total forwarding units served.
func (s *Server) Forwards() int64 { return s.fwdTotal }

// Stalls returns the total requests that stalled at this server.
func (s *Server) Stalls() int64 { return s.stallsTotal }
