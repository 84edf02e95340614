package cluster

import (
	"cmp"
	"slices"

	"repro/internal/client"
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the write-back strategy of the tick engine (engine.go):
// its plan, admit and per-unit apply, active when Config.Batching
// selects a real batching regime (BatchSize > 1 or FlushEvery > 1). The
// tick loop, the round scheduler, serveRank and every stall, relay,
// completion and grant helper are the engine's; the degenerate {1,1}
// configuration leaves the write-back state nil and is the sync
// strategy, which the differential test guards.
//
// The mode changes the client contract: instead of attempting each op
// synchronously, a client buffers drawn ops locally and flushes them in
// per-destination batches.
//
//	plan (wbPlan, run by wbAdmit just before the client's admission)
//	    A participating client draws up to its credit of new ops
//	    into its pending queue (credit is consumed at draw time) while
//	    the queue, journaled and buffered ops together, holds fewer than
//	    max(BatchSize, FlushEvery × credit): the loop is closed at the
//	    largest batch the age trigger lets the client form. It then
//	    splits the locally buffered suffix into runs at governing-entry
//	    switches. A run is flushable when it reaches BatchSize ops,
//	    when its oldest op has been buffered FlushEvery ticks, or when
//	    the stream is exhausted (tail flush). Only a flushable PREFIX
//	    flushes — queue order is the dependency order (a create
//	    precedes every op that depends on it in its client's stream),
//	    so a held-back run holds back everything behind it. Plans never
//	    read the lease set: with batching on, leases are granted
//	    and revoked but no op is lease-served.
//	admit (wbAdmit: tick shuffle order, then ID order for the other
//	    participating clients with queued ops)
//	    Flushable runs become batches at the tail of the client's FIFO,
//	    journaled at their rank; the ops stay in the client queue,
//	    counted by the client's in-flight prefix. Then each client's
//	    outstanding batches are admitted FIFO at group granularity: a
//	    batch of n ops costs ceil(n/BatchSize) budget units — the
//	    group-commit amortization. Retained batches (journaled in an
//	    earlier tick) re-resolve their governing entry through their
//	    first op and follow migrated authority to the new rank. The
//	    client's k-th admitted batch is its round k.
//	apply (applyBatch)
//	    The serving rank does the client-cache / forward-chain work once
//	    per batch, charges budget once per group, and fast-applies the
//	    ops: per-op trace recording, latency, and create
//	    materialization (these are inherently per-op), with heat
//	    charged per parent-directory run in one weighted walk.
//
// Visibility and crash rules: ops never leave the client queue until
// applied, so issued == done + pending holds unchanged; the in-flight
// prefix is the FIFO's unapplied ops (audited per rank). A rank's
// journal is its live batches in arrival order, read from the FIFOs. A
// crash drops it; every dropped batch re-queues the owning client's
// WHOLE outstanding suffix (later batches on live ranks included —
// queue order must survive), exactly once, because the batch objects
// are discarded. Known approximation: a batch re-resolves and commits
// against its first op's governing entry, so ops past a mid-batch
// fragment split are charged to the first op's fragment until the next
// flush boundary.

// wbRun is one flushable same-entry run planned for a client.
type wbRun struct {
	n     int32
	since int64
	ent   namespace.Entry
}

// wbBatch is one flushed batch: the next n unapplied ops of its
// client's queue, journaled at rank. The ops themselves never leave the
// queue until applied, so a batch is routing and accounting state only,
// and it lives only in its client's FIFO.
type wbBatch struct {
	rank namespace.MDSID // rank whose journal holds the batch
	n    int             // unapplied ops; 0 once fully applied
	ent  namespace.Entry // governing entry of the batch's first op
	// arrival orders the rank's journal: stamped at flush and again
	// when the batch is re-homed to a migrated authority.
	arrival int64
}

// wbState is the write-back strategy's state (nil in sync and
// degenerate modes).
type wbState struct {
	batchSize  int
	flushEvery int64

	// queues[ci] is client ci's outstanding batches, FIFO across ranks:
	// the one record of every rank's journal.
	queues [][]*wbBatch
	// depth[r] counts rank r's live batches, kept beside the FIFOs so a
	// flush reads its journal depth without walking every queue.
	depth    []int
	arrivals int64 // the last arrival stamp

	planned []bool // admitted in this tick's shuffled pass
	gated   []bool
	runs    []wbRun // wbPlan's scratch: the client being admitted
	// journaled is engine.journaled's scratch, reused by every audit pass.
	journaled []int64
}

func newWBState(e *engine, bc *BatchingConfig) *wbState {
	n := len(e.c.clients)
	return &wbState{
		batchSize:  bc.BatchSize,
		flushEvery: bc.FlushEvery,
		queues:     make([][]*wbBatch, n),
		planned:    make([]bool, n),
		gated:      make([]bool, n),
	}
}

// arrive returns the next arrival stamp: a batch reaching a rank sorts
// after every batch already there.
func (w *wbState) arrive() int64 {
	w.arrivals++
	return w.arrivals
}

// wbAdmit plans and admits each credited client in the tick's shuffled
// order, then, in ID order, every other participating client with
// queued ops: flush-age triggers fire and retained batches re-admit
// even on zero-credit ticks.
func (e *engine) wbAdmit(tick int64) {
	w := e.wb
	clear(w.planned)
	for _, ci := range e.order {
		w.planned[ci] = true
		e.wbAdmitClient(ci, e.wbPlan(ci, tick), tick)
	}
	for ci, cl := range e.c.clients {
		if !w.planned[ci] && e.participated[ci] && cl.PendingOps() > 0 {
			e.wbAdmitClient(int32(ci), e.wbPlan(int32(ci), tick), tick)
		}
	}
}

// wbPlan draws the client's new ops (bounded by credit, consumed at
// draw time, and by the client's window) and splits the locally
// buffered suffix into runs at governing-entry switches, returning the
// flushable prefix in the state's scratch.
func (e *engine) wbPlan(ci int32, tick int64) []wbRun {
	w := e.wb
	cl := e.c.clients[ci]
	// A tree-reading stream must not draw past an unadopted create: the
	// gate set at that create clears once the queue has fully drained
	// (the gating create is always the newest queued op, and it is
	// adopted where it is served).
	if w.gated[ci] && cl.PendingOps() == 0 {
		w.gated[ci] = false
	}
	if !w.gated[ci] {
		// The window: the age trigger flushes an op FlushEvery ticks after
		// its draw, so a queue of FlushEvery ticks' credit (at least one
		// batch) holds every batch the client can form at its own rate.
		// Anything drawn past it would only wait.
		win := max(int64(w.batchSize), w.flushEvery*e.credit[ci])
		for e.credit[ci] > 0 && cl.PendingOps() < win {
			op := cl.PeekOp(int(cl.PendingOps()), tick)
			if op == nil {
				break // stream exhausted
			}
			e.credit[ci]--
			if e.endsRun(cl, op) {
				if op.Kind == workload.OpCreate && cl.StreamReadsTree() {
					w.gated[ci] = true
				}
				break
			}
		}
	}
	runs := w.runs[:0]
	buf := int(cl.BufferedOps())
	base := int(cl.Inflight())
	i := 0
	// One-entry resolve memo keyed by the op's resolve-input inode
	// (the parent for creates, the target otherwise): sequential fills
	// resolve once per directory instead of once per op. Creates into a
	// fragmented directory are thereby grouped at parent granularity —
	// the batch-level approximation admission re-resolves anyway.
	var memoIn *namespace.Inode
	var memoEnt namespace.Entry
	for i < buf {
		op := cl.PeekOp(base+i, tick)
		rin := op.Target
		if op.Kind == workload.OpCreate {
			rin = op.Parent
		}
		if rin != memoIn {
			memoIn, memoEnt = rin, e.c.resolveOp(op).ent
		}
		ent := memoEnt
		n := 1
		ends := e.endsRun(cl, op)
		for !ends && i+n < buf {
			op2 := cl.PeekOp(base+i+n, tick)
			rin2 := op2.Target
			if op2.Kind == workload.OpCreate {
				rin2 = op2.Parent
			}
			if rin2 != memoIn {
				memoIn, memoEnt = rin2, e.c.resolveOp(op2).ent
				if memoEnt.Key != ent.Key || memoEnt.Auth != ent.Auth {
					break // entry switch: the run ends here
				}
			}
			ends = e.endsRun(cl, op2)
			n++
		}
		since := cl.PeekSince(base + i)
		if n < w.batchSize && tick-since+1 < w.flushEvery && !cl.StreamDrained() {
			break // not flushable; prefix-only, so later runs wait too
		}
		runs = append(runs, wbRun{n: int32(n), since: since, ent: ent})
		i += n
	}
	w.runs = runs
	return runs
}

// wbAdmitClient journals the client's flushable runs as batches at the
// tail of its FIFO, then walks the FIFO granting commit groups from the
// budget pools. A batch that cannot be (fully) admitted blocks every
// later batch of the same client — per-client FIFO is the ordering
// contract application correctness rests on.
func (e *engine) wbAdmitClient(ci int32, runs []wbRun, tick int64) {
	c := e.c
	w := e.wb
	cl := c.clients[ci]
	q := w.queues[ci]
	// Pop batches fully applied in earlier ticks.
	pop := 0
	for pop < len(q) && q[pop].n == 0 {
		pop++
	}
	if pop > 0 {
		n := copy(q, q[pop:])
		clear(q[n:])
		q = q[:n]
	}
	for _, fr := range runs {
		rank := fr.ent.Auth
		if !c.servers[rank].Up() {
			// The sync path would attempt the op against the down rank
			// and back off; the flush does the same, with the ops
			// staying buffered client-side.
			e.stallDown(cl, rank, tick)
			break
		}
		q = append(q, &wbBatch{rank: rank, n: int(fr.n), ent: fr.ent, arrival: w.arrive()})
		w.depth[rank]++
		cl.MarkInflight(int(fr.n))
		c.rec.AddBatchFlush(int(fr.n), tick-fr.since)
		if c.bus.Enabled(obs.EvBatchFlush) {
			f := obs.AcquireF()
			f["client"], f["rank"], f["n"] = cl.ID, int(rank), int(fr.n)
			f["age"], f["depth"] = tick-fr.since, w.depth[rank]
			c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvBatchFlush, Fields: f})
		}
	}
	w.queues[ci] = q
	if e.blocked[ci] {
		return
	}
	// Admission over the FIFO at group granularity.
	off := 0
	round := int32(0)
	// Tokens this client charged for batches admitted this tick. When a
	// later batch blocks the client, the serve phase skips those earlier
	// batches too (a client's batches apply in order), so their tokens
	// must flow back to the bucket or they leak every tick the pattern
	// repeats — a contended tenant would pay full rate for zero service.
	tickAdm := 0
	refundBlocked := func() {
		if tn := c.tn; tn != nil && tickAdm > 0 {
			tn.Refund(cl.Tenant, tickAdm)
			tn.NoteStalled(cl.Tenant, tickAdm)
		}
	}
	for _, b := range q {
		op := cl.PeekOp(off, tick)
		if op == nil {
			break // cannot happen: journaled ops are queued
		}
		ent := c.resolveOp(op).ent
		if !c.servers[ent.Auth].Up() {
			// Authority sits on a down rank (orphan window): the batch
			// stays in its current live journal and the client backs
			// off, as a sync attempt against the dead rank would.
			e.stallDown(cl, ent.Auth, tick)
			refundBlocked()
			break
		}
		if ent.Auth != b.rank {
			// The authority migrated: the batch joins the tail of the new
			// rank's journal.
			w.depth[b.rank]--
			w.depth[ent.Auth]++
			b.rank, b.arrival = ent.Auth, w.arrive()
		}
		b.ent = ent
		if c.migrator.IsFrozen(ent.Key) {
			e.stall(cl, b.rank)
			refundBlocked()
			break
		}
		// The batch draws from its tenant's bucket, then from the rank
		// pool at one unit per commit group.
		want := int32(b.n)
		grant, adm := e.admitOps(cl, int32(b.rank), want, int32(w.batchSize))
		if adm == 0 {
			// Nothing admitted (bucket dry — the write-back throttle — or
			// pool dry): the batch is retained in the journal. With
			// earlier batches already holding quota, stop admitting and
			// let them serve; only a client with nothing admitted stalls,
			// the sync admission-cut stall at batch granularity.
			if grant == 0 {
				c.tn.NoteThrottled(cl.Tenant, int(want))
			}
			if round == 0 {
				e.stall(cl, b.rank)
			}
			break
		}
		if grant < want {
			c.tn.NoteThrottled(cl.Tenant, int(want-grant))
		}
		tickAdm += int(adm)
		e.byRank[b.rank] = append(e.byRank[b.rank],
			unit{client: ci, rank: int32(b.rank), n: want, adm: adm, round: round, batch: b})
		round++
		if adm < want {
			break // partial admission: serve the prefix, stall there
		}
		off += b.n
	}
}

// applyBatch is the write-back strategy's per-unit apply: it applies
// the admitted prefix of one batch — budget per commit group,
// client-cache/forwarding work once per batch, trace and latency per
// op, heat per parent-directory run. An unapplied remainder stays
// journaled for the next tick.
func (e *engine) applyBatch(auth *mds.Server, cl *client.Client,
	u *unit, tick, epoch int64) (execStatus, namespace.MDSID) {
	c := e.c
	w := e.wb
	b := u.batch
	entry := b.ent
	rank := namespace.MDSID(u.rank)
	adm := int(u.adm)
	applied, served, groups := 0, 0, 0
	groupLeft := 0
	headDone := false
	var runPar, runRep *namespace.Inode
	// A run counts its ops, its creates (the writes of a batch) and,
	// among those, the files it adopted.
	runN, runCreates, runFresh := 0, 0, int64(0)
	wrote := false
	status, at := execOK, namespace.MDSID(0)
	coll := auth.Collector()
	for applied < adm {
		if groupLeft == 0 {
			if !auth.ConsumeGroupBudget() {
				// Another rank's forward charges floored the budget under
				// the admission reservation; the remainder is retained.
				status, at = execStall, rank
				break
			}
			groups++
			groupLeft = w.batchSize
		}
		groupLeft--
		op := cl.OpAt(0)
		target := op.Target
		create := op.Kind == workload.OpCreate
		if create {
			target = e.carve(op) // nil: a raced create, served by no rank
		}
		if target != nil {
			if !headDone {
				// Once per batch: the client-cache / forwarding work the
				// group commit amortizes across the whole run.
				if status, at = e.reach(cl, entry, target); status != execOK {
					break
				}
				headDone = true
			}
			fresh := false
			if create {
				// A taken name is served as the existing inode.
				target, fresh = c.tree.AdoptOrExisting(target)
				wrote = true
			}
			if fresh {
				// A fresh inode is a first-ever visit by construction:
				// touch its epoch bit and mark it now, and fold its trace
				// counters into the per-run RecordFreshRun below.
				target.Hot.Touch(epoch)
				target.MarkVisited()
			} else if coll.RecordNoVisit(entry.Key, target, epoch) {
				target.MarkVisited()
			}
			if runN == 0 || target.Parent != runPar {
				if runN > 0 {
					auth.AddHeatRun(entry.Key, runRep, runN, runN-runCreates)
					coll.RecordFreshRun(entry.Key, runPar, epoch, runFresh)
				}
				runPar, runRep, runN, runCreates, runFresh = target.Parent, target, 0, 0, 0
			}
			runN++
			if create {
				runCreates++
			}
			if fresh {
				runFresh++
			}
			served++
		}
		applied++
		if e.complete(cl, op.DataSize, tick) {
			status = execDebt
			break
		}
	}
	if runN > 0 {
		auth.AddHeatRun(entry.Key, runRep, runN, runN-runCreates)
		coll.RecordFreshRun(entry.Key, runPar, epoch, runFresh)
	}
	if served > 0 {
		auth.AddOps(served)
		if c.tn != nil {
			auth.AddTenantHeat(entry.Key, cl.Tenant, served)
		}
	}
	if wrote {
		// The batch mutated its subtree: its read leases die (one revoke
		// per batch is enough).
		c.revokeLease(entry.Key)
	}
	// The admission cut: the budget pool ran dry mid-batch. Read before
	// the commit shrinks b.n to the unapplied remainder.
	cut := adm < b.n
	if applied > 0 {
		if b.n -= applied; b.n == 0 {
			w.depth[b.rank]--
		}
		c.rec.AddBatchCommit()
		if c.bus.Enabled(obs.EvBatchCommit) {
			f := obs.AcquireF()
			f["rank"], f["client"], f["n"], f["groups"] = int(rank), cl.ID, applied, groups
			c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvBatchCommit, Fields: f})
		}
	}
	if status == execOK && cut {
		return execStall, rank
	}
	return status, at
}

// wbCrashRank drops the rank's unapplied journal: its live batches,
// collected from the client FIFOs, re-queue in arrival order, each the
// owning client's whole outstanding suffix (see wbRequeueFrom). Called
// from CrashMDS and before a drained rank retires, so requeue events
// interleave deterministically with the crash event.
func (e *engine) wbCrashRank(id namespace.MDSID, tick int64) {
	type held struct {
		client int
		b      *wbBatch
	}
	var journal []held
	for ci, q := range e.wb.queues {
		for _, b := range q {
			if b.n > 0 && b.rank == id {
				journal = append(journal, held{ci, b})
			}
		}
	}
	slices.SortFunc(journal, func(x, y held) int { return cmp.Compare(x.b.arrival, y.b.arrival) })
	for _, h := range journal {
		e.wbRequeueFrom(h.client, h.b, tick)
	}
}

// wbRequeueFrom drops the client's outstanding batches from b onward —
// later batches on live ranks included, because the client queue must
// re-flush in order — returning their ops to the locally buffered
// state. Exactly-once is structural: the batch objects are discarded,
// and the ops never left the client queue.
func (e *engine) wbRequeueFrom(ci int, b *wbBatch, tick int64) {
	c := e.c
	w := e.wb
	q := w.queues[ci]
	idx := slices.Index(q, b)
	if idx < 0 {
		return // already requeued via an earlier batch's suffix
	}
	cl := c.clients[ci]
	for _, s := range q[idx:] {
		w.depth[s.rank]--
		cl.RequeueInflight(int64(s.n))
		c.rec.AddBatchRequeue()
		if c.bus.Enabled(obs.EvBatchRequeue) {
			f := obs.AcquireF()
			f["rank"], f["client"], f["n"] = int(s.rank), ci, s.n
			c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvBatchRequeue, Fields: f})
		}
	}
	clear(q[idx:])
	w.queues[ci] = q[:idx]
}

// journaled returns each rank's unapplied write-back ops, summed from
// the client FIFOs into reused scratch (nil in sync mode): the
// auditor's view of the rank journals.
func (e *engine) journaled() []int64 {
	w := e.wb
	if w == nil {
		return nil
	}
	if cap(w.journaled) < len(e.c.servers) {
		w.journaled = make([]int64, len(e.c.servers))
	}
	j := w.journaled[:len(e.c.servers)]
	clear(j)
	for _, q := range w.queues {
		for _, b := range q {
			j[b.rank] += int64(b.n)
		}
	}
	return j
}
