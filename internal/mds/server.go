// Package mds models the metadata servers of the cluster: a rank's
// lifecycle, its bounded per-tick service budget and request counters,
// and the subtree migration engine with its two-phase-commit cost model
// (transfer latency, freeze windows, bounded concurrency, queueing).
// Each rank's access statistics live in one trace table; the server
// charges it as it serves and reads it for the balancers.
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

	stats *trace.Collector // cutting windows, heat and tenant split

	loadHistory []float64 // per-epoch load (ops/sec), appended by EndEpoch
}

// NewServer creates an MDS with the given per-tick capacity. Its
// statistics table retains historyWindows cutting windows; heatDecay in
// (0,1] is the per-epoch multiplicative decay of its heat (CephFS-style
// exponential aging).
func NewServer(id namespace.MDSID, capacity, historyWindows int, heatDecay float64) *Server {
	if capacity <= 0 {
		panic("mds: capacity must be positive")
	}
	return &Server{ID: id, Capacity: capacity, stats: trace.New(historyWindows, heatDecay)}
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
	s.stats = s.stats.Fresh()
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
// first time ever and the caller owes it a MarkVisited. write
// classifies the access for the read/write heat split; the total heat
// charged is identical either way.
func (s *Server) ServeDeferVisit(e namespace.Entry, in *namespace.Inode, epoch int64, write bool) (ok, firstVisit bool) {
	if s.budget <= 0 {
		return false, false
	}
	s.budget--
	s.opsTick++
	s.opsEpoch++
	s.opsTotal++
	return true, s.stats.Charge(e.Key, in, epoch, write)
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
// per op). The engine charges the statistics table per op and per run
// itself; only the counters are batched here.
func (s *Server) AddOps(n int) {
	if n <= 0 {
		return
	}
	s.opsTick += n
	s.opsEpoch += int64(n)
	s.opsTotal += int64(n)
}

// EndEpoch closes the current epoch: it computes the epoch's load in
// ops/sec (epochTicks ticks of one second each), appends it to the load
// history, closes the table's heat epoch (O(1) but for a purge every
// 64 epochs) and resets the epoch counter. It returns the epoch load.
func (s *Server) EndEpoch(epochTicks int) float64 {
	if epochTicks <= 0 {
		epochTicks = 1
	}
	load := float64(s.opsEpoch) / float64(epochTicks)
	s.loadHistory = append(s.loadHistory, load)
	s.opsEpoch = 0
	s.stats.EndEpoch()
	return load
}

// Collector returns the server's statistics table.
func (s *Server) Collector() *trace.Collector { return s.stats }

// HeatOfKey returns the decayed popularity of a subtree entry.
func (s *Server) HeatOfKey(key namespace.FragKey) float64 {
	_, heat, _ := s.stats.KeyHeat(key)
	return heat
}

// KeyStats returns the subtree entry's cumulative raw access count and
// its decayed popularity — the replication journal's per-ship delta
// source. The ops counter resets when the key is dropped (migration),
// when the table is rebuilt (rejoin) and when the heat-epoch purge
// finds the key's heat expired; the journal detects a reset by the
// counter going backwards.
func (s *Server) KeyStats(key namespace.FragKey) (ops int64, heat float64) {
	ops, heat, _ = s.stats.KeyHeat(key)
	return ops, heat
}

// SeedHeatRW installs warm popularity with an explicit read component:
// the journal prefix a promoted standby carries (read 0: a promoted
// subtree re-earns its read-dominance before leases re-form), or a
// directory's heat moved onto a freshly carved key, which would
// otherwise start cold and be absorbed before a lease can form.
func (s *Server) SeedHeatRW(key namespace.FragKey, heat, read float64) {
	s.stats.SeedHeat(key, heat, read)
}

// KeyHeatRW returns a subtree entry's decayed popularity split into the
// total and its read component (read <= total). The ratio read/total is
// the migrate-vs-replicate signal: read-dominated hot subtrees get
// read leases, write-hot ones migrate.
func (s *Server) KeyHeatRW(key namespace.FragKey) (total, read float64) {
	_, total, read = s.stats.KeyHeat(key)
	return total, read
}

// DirHeatRW returns a directory's decayed popularity split into the
// total and its read component — the lease controller's carve signal.
func (s *Server) DirHeatRW(dir *namespace.Inode) (total, read float64) {
	return s.stats.DirHeat(dir)
}

// HeatOfDir returns the decayed popularity accumulated at a directory.
func (s *Server) HeatOfDir(dir *namespace.Inode) float64 {
	total, _ := s.stats.DirHeat(dir)
	return total
}

// HeatEntries returns how many subtree entries currently carry
// non-negligible heat — the heat-table size of the per-rank trace
// timeline.
func (s *Server) HeatEntries() int { return s.stats.HeatEntries() }

// MinHeat returns the smallest decayed popularity value across every
// heat cell, or 0 when the table is empty. Heat only accumulates
// accesses and decays multiplicatively, so a negative reading means
// counter corruption; the state auditor checks it.
func (s *Server) MinHeat() float64 { return s.stats.MinHeat() }

// DropSubtreeStats clears the statistics of a subtree that has been
// migrated away.
func (s *Server) DropSubtreeStats(key namespace.FragKey) { s.stats.Forget(key) }

// EnableTenants splits the server's heat by n tenants. It survives
// Rejoin.
func (s *Server) EnableTenants(n int) { s.stats.EnableTenants(n) }

// AddTenantHeat attributes n served accesses under the key to tenant
// t's share of the key's heat. No-op on single-tenant servers or
// out-of-range tenants, so call sites need no guard.
func (s *Server) AddTenantHeat(key namespace.FragKey, t, n int) { s.stats.AddTenantHeat(key, t, n) }

// DominantTenant returns the tenant responsible for more than half of
// the key's tenant-attributed heat, or -1 when no tenant dominates
// (including on single-tenant servers).
func (s *Server) DominantTenant(key namespace.FragKey) int { return s.stats.DominantTenant(key) }

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
