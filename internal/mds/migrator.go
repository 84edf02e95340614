package mds

import (
	"sort"

	"repro/internal/namespace"
	"repro/internal/obs"
)

// TaskState is the lifecycle state of an export task.
type TaskState int

// Export task states.
const (
	TaskQueued TaskState = iota
	TaskActive
	TaskDone
	TaskDropped
	// TaskAborted marks a task cancelled because its exporter or
	// importer crashed; authority was rolled to the surviving side.
	// Aborts are accounted separately from drops: a drop is a planning
	// staleness (TTL, authority change), an abort is a failure event.
	TaskAborted
)

// ExportTask is one planned subtree migration. Tasks move through
// queued -> active -> done; tasks that become stale before activation
// (authority changed, subtree absorbed, or queue TTL expired) are
// dropped, modelling the paper's observation that only a fraction of
// enqueued exports ever complete within an epoch.
type ExportTask struct {
	Key  namespace.FragKey
	From namespace.MDSID
	To   namespace.MDSID

	State       TaskState
	SubmitTick  int64
	StartTick   int64
	DoneTick    int64
	Inodes      int // counted at activation
	PlannedLoad float64

	// Drain marks a bulk export emptying a draining rank. Drain tasks
	// are exempt from the queue TTL: the exporter is being retired, so
	// "this plan went stale, drop it" does not apply — the subtree must
	// leave no matter how long the queue is.
	Drain bool

	// frozeLogged dedups the freeze trace event: a task enters its
	// commit window once, but the frozen set is rebuilt every tick.
	frozeLogged bool
}

// Migrator runs subtree migrations with the costs the paper calls out:
// a transfer duration proportional to the number of migrated inodes, a
// freeze of the subtree while the two-phase commit is in flight, and a
// bound on concurrent exports per exporter.
type Migrator struct {
	part *namespace.Partition

	// RatePerTick is how many inodes one exporter can ship per tick.
	RatePerTick int
	// MaxActivePerExporter bounds concurrent in-flight exports.
	MaxActivePerExporter int
	// QueueTTL is how many ticks a queued task stays valid.
	QueueTTL int64
	// MinTicks is the fixed two-phase-commit latency of any export
	// (discovery, freeze, cache invalidation), independent of size.
	MinTicks int64
	// FreezeTicks is how long before completion the subtree freezes
	// (the commit phase); during the rest of the transfer the exporter
	// keeps serving it, as in CephFS's incremental export.
	FreezeTicks int64
	// ValidRank, when set, reports whether a rank is a live, valid
	// migration endpoint. Tasks whose importer (or exporter) fails the
	// check at activation are dropped, never activated — a migration
	// must not ship a subtree to a dead or nonexistent rank.
	ValidRank func(namespace.MDSID) bool
	// ValidImporter, when set, additionally gates the importer side at
	// activation: a rank can be a legal exporter but an illegal import
	// target (a draining rank being emptied must not receive new
	// subtrees). Tasks whose importer fails it are dropped with reason
	// "importer_excluded".
	ValidImporter func(namespace.MDSID) bool
	// Bus, when set, receives migration lifecycle trace events. A nil
	// bus is the zero-cost disabled state.
	Bus *obs.Bus

	// now is the tick of the most recent Tick call, stamped onto
	// events raised outside the tick loop (AbortRank runs from fault
	// handlers that fire before the migrator's turn in the tick).
	now int64

	queued []*ExportTask
	active []*ExportTask

	frozen map[namespace.FragKey]bool

	migratedInodes int64 // cumulative, for Figure 4
	completedTasks int64
	droppedTasks   int64
	abortedTasks   int64
	submitted      int64

	// onComplete is invoked for each finished task (e.g. to drop the
	// exporter's stats for the subtree).
	onComplete func(*ExportTask)
}

// NewMigrator creates a migration engine over the partition.
func NewMigrator(part *namespace.Partition, ratePerTick, maxActive int, queueTTL int64) *Migrator {
	if ratePerTick <= 0 {
		panic("mds: migration rate must be positive")
	}
	if maxActive <= 0 {
		panic("mds: max active exports must be positive")
	}
	return &Migrator{
		part:                 part,
		RatePerTick:          ratePerTick,
		MaxActivePerExporter: maxActive,
		QueueTTL:             queueTTL,
		MinTicks:             1,
		FreezeTicks:          1,
		frozen:               make(map[namespace.FragKey]bool),
	}
}

// OnComplete registers a callback invoked when a task finishes.
func (m *Migrator) OnComplete(fn func(*ExportTask)) { m.onComplete = fn }

// Submit enqueues an export task for the subtree entry at key, shipping
// it from its current authority to the given importer.
func (m *Migrator) Submit(key namespace.FragKey, from, to namespace.MDSID, plannedLoad float64, tick int64) *ExportTask {
	t := &ExportTask{
		Key:         key,
		From:        from,
		To:          to,
		State:       TaskQueued,
		SubmitTick:  tick,
		PlannedLoad: plannedLoad,
	}
	m.queued = append(m.queued, t)
	m.submitted++
	if m.Bus.Enabled(obs.EvMigrationPlanned) {
		m.Bus.Emit(obs.Event{Tick: tick, Type: obs.EvMigrationPlanned,
			Fields: taskFields(t, obs.F{"planned_load": plannedLoad})})
	}
	return t
}

// SubmitDrain enqueues a drain export: the same lifecycle as Submit,
// but TTL-exempt (see ExportTask.Drain) — a draining rank may govern
// far more subtrees than MaxActivePerExporter lets it ship inside one
// queue-TTL window, and none of them may be forgotten.
func (m *Migrator) SubmitDrain(key namespace.FragKey, from, to namespace.MDSID, plannedLoad float64, tick int64) *ExportTask {
	t := m.Submit(key, from, to, plannedLoad, tick)
	t.Drain = true
	return t
}

// taskFields builds the shared payload of a migration event.
func taskFields(t *ExportTask, extra obs.F) obs.F {
	f := obs.F{
		"dir":  uint64(t.Key.Dir),
		"frag": t.Key.Frag.String(),
		"from": int(t.From),
		"to":   int(t.To),
	}
	for k, v := range extra {
		f[k] = v
	}
	return f
}

// IsFrozen reports whether the subtree entry is frozen by an in-flight
// migration (requests to it must stall). Called on every op, so the
// common no-migrations-in-flight case skips the map hash entirely.
func (m *Migrator) IsFrozen(key namespace.FragKey) bool {
	return len(m.frozen) != 0 && m.frozen[key]
}

// Tick advances the migration engine by one tick: it completes
// transfers that finish now, expires stale queued tasks, activates
// queued tasks up to the per-exporter concurrency bound, and freezes
// subtrees whose exports enter the commit phase.
func (m *Migrator) Tick(tick int64) {
	m.now = tick
	// Complete finished transfers.
	var stillActive []*ExportTask
	for _, t := range m.active {
		if tick >= t.DoneTick {
			m.complete(t, tick)
		} else {
			stillActive = append(stillActive, t)
		}
	}
	m.active = stillActive

	// Freeze the subtrees in their commit window.
	for k := range m.frozen {
		delete(m.frozen, k)
	}
	for _, t := range m.active {
		if t.DoneTick-tick <= m.FreezeTicks {
			m.frozen[t.Key] = true
			m.noteFrozen(t, tick)
		}
	}

	// Expire or drop stale queued tasks, then activate what fits. The
	// common no-queued-tasks case allocates nothing.
	if len(m.queued) == 0 {
		return
	}
	activePer := make(map[namespace.MDSID]int)
	activeKeys := make(map[namespace.FragKey]bool, len(m.active))
	for _, t := range m.active {
		activePer[t.From]++
		activeKeys[t.Key] = true
	}
	var remaining []*ExportTask
	for _, t := range m.queued {
		if !t.Drain && m.QueueTTL > 0 && tick-t.SubmitTick >= m.QueueTTL {
			m.drop(t, tick, "ttl")
			continue
		}
		e, ok := m.part.EntryAt(t.Key)
		if !ok || e.Auth != t.From || t.From == t.To {
			m.drop(t, tick, "stale")
			continue
		}
		if !m.rankValid(t.To) || !m.rankValid(t.From) {
			// Importer (or exporter) is dead or out of range: the task
			// must never activate against an invalid endpoint.
			m.drop(t, tick, "endpoint_down")
			continue
		}
		if m.ValidImporter != nil && !m.ValidImporter(t.To) {
			// The importer is alive but excluded (draining): a task
			// planned before the drain started must not land new load
			// on the rank being emptied.
			m.drop(t, tick, "importer_excluded")
			continue
		}
		if activePer[t.From] >= m.MaxActivePerExporter || m.frozen[t.Key] ||
			activeKeys[t.Key] {
			// The activeKeys guard keeps a subtree from being exported
			// twice concurrently: a duplicate submission stays queued
			// until the in-flight export settles (it is then dropped as
			// stale when the completed export changes the authority).
			remaining = append(remaining, t)
			continue
		}
		m.activate(t, tick)
		activePer[t.From]++
		activeKeys[t.Key] = true
	}
	m.queued = remaining
}

func (m *Migrator) activate(t *ExportTask, tick int64) {
	t.State = TaskActive
	t.StartTick = tick
	t.Inodes = m.part.GovernedInodes(t.Key)
	dur := int64((t.Inodes + m.RatePerTick - 1) / m.RatePerTick)
	if dur < m.MinTicks {
		dur = m.MinTicks // the two-phase commit has a fixed floor cost
	}
	if dur < 1 {
		dur = 1
	}
	t.DoneTick = tick + dur
	if m.Bus.Enabled(obs.EvMigrationActivated) {
		m.Bus.Emit(obs.Event{Tick: tick, Type: obs.EvMigrationActivated,
			Fields: taskFields(t, obs.F{"inodes": t.Inodes, "done_tick": t.DoneTick})})
	}
	if t.DoneTick-tick <= m.FreezeTicks {
		m.frozen[t.Key] = true
		m.noteFrozen(t, tick)
	}
	m.active = append(m.active, t)
}

// noteFrozen emits the freeze event once per task, on the tick its
// commit window opens.
func (m *Migrator) noteFrozen(t *ExportTask, tick int64) {
	if t.frozeLogged {
		return
	}
	t.frozeLogged = true
	if m.Bus.Enabled(obs.EvMigrationFrozen) {
		m.Bus.Emit(obs.Event{Tick: tick, Type: obs.EvMigrationFrozen,
			Fields: taskFields(t, obs.F{"done_tick": t.DoneTick})})
	}
}

func (m *Migrator) complete(t *ExportTask, tick int64) {
	delete(m.frozen, t.Key)
	if _, ok := m.part.EntryAt(t.Key); !ok {
		// The entry was absorbed or split away while the export was in
		// flight (the exporter keeps serving — and the balancer keeps
		// reshaping — the subtree until the freeze). There is nothing
		// left to hand over; committing authority onto the stale key
		// would be a silent no-op at best and a corruption at worst.
		m.drop(t, tick, "vanished")
		return
	}
	t.State = TaskDone
	m.part.SetAuth(t.Key, t.To)
	m.migratedInodes += int64(t.Inodes)
	m.completedTasks++
	if m.Bus.Enabled(obs.EvMigrationCompleted) {
		m.Bus.Emit(obs.Event{Tick: tick, Type: obs.EvMigrationCompleted,
			Fields: taskFields(t, obs.F{"inodes": t.Inodes, "ticks": tick - t.StartTick})})
	}
	if m.onComplete != nil {
		m.onComplete(t)
	}
}

func (m *Migrator) drop(t *ExportTask, tick int64, reason string) {
	t.State = TaskDropped
	m.droppedTasks++
	if m.Bus.Enabled(obs.EvMigrationDropped) {
		m.Bus.Emit(obs.Event{Tick: tick, Type: obs.EvMigrationDropped,
			Fields: taskFields(t, obs.F{"reason": reason})})
	}
}

// rankValid applies the ValidRank hook plus the always-on sanity check
// that a rank is non-negative.
func (m *Migrator) rankValid(r namespace.MDSID) bool {
	if r < 0 {
		return false
	}
	if m.ValidRank == nil {
		return true
	}
	return m.ValidRank(r)
}

// AbortRank cancels every queued and in-flight export that involves the
// given (crashed) rank and returns how many tasks were aborted.
// Authority of an aborted in-flight export rolls to the surviving side:
// if the exporter died the importer completes the takeover (it already
// holds the replicated subtree from the transfer phase, as in a CephFS
// importer finishing from its journal), and if the importer died the
// subtree simply stays with the exporter, which never stopped being
// authoritative. Either way the subtree is unfrozen and the partition
// is left pointing at a live rank for that entry.
func (m *Migrator) AbortRank(dead namespace.MDSID) int {
	aborted := 0
	var stillActive []*ExportTask
	for _, t := range m.active {
		if t.From != dead && t.To != dead {
			stillActive = append(stillActive, t)
			continue
		}
		t.State = TaskAborted
		delete(m.frozen, t.Key)
		if t.From == dead {
			// Exporter died mid-flight: the importer takes over.
			m.part.SetAuth(t.Key, t.To)
		}
		m.abortedTasks++
		aborted++
		if m.Bus.Enabled(obs.EvMigrationAborted) {
			m.Bus.Emit(obs.Event{Tick: m.now, Type: obs.EvMigrationAborted,
				Fields: taskFields(t, obs.F{"dead": int(dead), "in_flight": true})})
		}
	}
	m.active = stillActive

	var stillQueued []*ExportTask
	for _, t := range m.queued {
		if t.From != dead && t.To != dead {
			stillQueued = append(stillQueued, t)
			continue
		}
		t.State = TaskAborted
		m.abortedTasks++
		aborted++
		if m.Bus.Enabled(obs.EvMigrationAborted) {
			m.Bus.Emit(obs.Event{Tick: m.now, Type: obs.EvMigrationAborted,
				Fields: taskFields(t, obs.F{"dead": int(dead), "in_flight": false})})
		}
	}
	m.queued = stillQueued
	return aborted
}

// MigratedInodes returns the cumulative number of migrated inodes.
func (m *Migrator) MigratedInodes() int64 { return m.migratedInodes }

// CompletedTasks returns the number of finished exports.
func (m *Migrator) CompletedTasks() int64 { return m.completedTasks }

// DroppedTasks returns the number of dropped/expired exports.
func (m *Migrator) DroppedTasks() int64 { return m.droppedTasks }

// AbortedTasks returns the number of exports aborted by crashes.
func (m *Migrator) AbortedTasks() int64 { return m.abortedTasks }

// SubmittedTasks returns the number of submitted exports.
func (m *Migrator) SubmittedTasks() int64 { return m.submitted }

// QueuedTasks returns the current queue length (not yet active).
func (m *Migrator) QueuedTasks() int { return len(m.queued) }

// TasksFor returns how many exports the given rank currently has
// queued and in flight as the exporter — the queue depth of the
// per-rank trace timeline.
func (m *Migrator) TasksFor(rank namespace.MDSID) (queued, active int) {
	for _, t := range m.queued {
		if t.From == rank {
			queued++
		}
	}
	for _, t := range m.active {
		if t.From == rank {
			active++
		}
	}
	return queued, active
}

// ActiveTasks returns the number of in-flight exports.
func (m *Migrator) ActiveTasks() int { return len(m.active) }

// ForEachActive visits every in-flight export task in activation order.
// The callback must treat the task as read-only; the state auditor uses
// this to reconcile the frozen set against the active commit windows.
func (m *Migrator) ForEachActive(fn func(*ExportTask)) {
	for _, t := range m.active {
		fn(t)
	}
}

// ForEachQueued visits every queued (not yet active) export task in
// submission order. The callback must treat the task as read-only; the
// state auditor uses this for the decommission invariants.
func (m *Migrator) ForEachQueued(fn func(*ExportTask)) {
	for _, t := range m.queued {
		fn(t)
	}
}

// InTransit reports whether the subtree entry must be left alone by
// anything that plans or reshapes subtrees: it is frozen in an export's
// commit window, or an export of it away from the given rank is already
// queued or in flight. It is the one definition of that rule for
// candidate enumeration, partition housekeeping and the drain pump.
func (m *Migrator) InTransit(key namespace.FragKey, from namespace.MDSID) bool {
	if m.IsFrozen(key) {
		return true
	}
	for _, t := range m.queued {
		if t.Key == key && t.From == from {
			return true
		}
	}
	for _, t := range m.active {
		if t.Key == key && t.From == from {
			return true
		}
	}
	return false
}

// PendingFor returns the subtrees with a queued or in-flight export
// away from the given exporter: the whole set at once, for inspection.
// Per-entry decisions ask InTransit.
func (m *Migrator) PendingFor(from namespace.MDSID) map[namespace.FragKey]bool {
	out := make(map[namespace.FragKey]bool)
	for _, t := range m.queued {
		if t.From == from {
			out[t.Key] = true
		}
	}
	for _, t := range m.active {
		if t.From == from {
			out[t.Key] = true
		}
	}
	return out
}

// FrozenKeys returns the frozen subtree entries in deterministic order.
func (m *Migrator) FrozenKeys() []namespace.FragKey {
	out := make([]namespace.FragKey, 0, len(m.frozen))
	for k := range m.frozen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dir != out[j].Dir {
			return out[i].Dir < out[j].Dir
		}
		if out[i].Frag.Bits != out[j].Frag.Bits {
			return out[i].Frag.Bits < out[j].Frag.Bits
		}
		return out[i].Frag.Value < out[j].Frag.Value
	})
	return out
}
