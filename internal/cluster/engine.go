package cluster

import (
	"slices"

	"repro/internal/client"
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/workload"
)

// This file implements the tick engine: the client-serve part of
// Cluster.Step. A run is one goroutine; the phases below fix the order
// in which a tick's effects land, and that order is model output.
//
// There is ONE tick loop, serveTick, for both client contracts:
//
//	gate (client ID order)
//	    done / not started / backing off / data debt, then credit.
//	shuffle (cohort order from the cluster stream, then each cohort's
//	    credited clients from the cohort's own stream)
//	repeat:
//	  plan + admit (tick shuffle order)    — strategy
//	      Plans each client just before admitting it: a plan reads only
//	      its own client, the partition, the resolver and the lease set,
//	      and admission writes none of them. Admission arbitrates each
//	      rank's per-tick budget pool (and, with QoS, the tenant token
//	      buckets) and appends every admitted unit — "n queued ops of
//	      client c at rank r, admitted prefix adm" — to the phase's
//	      schedule, so a client's units sit together in plan order.
//	  serve (schedule order): servePhase applies each unit of a client
//	      that has not stalled this tick                   — strategy
//	      Every effect lands where it occurs: stall notes, data debt,
//	      relay charges, created inodes (so serve order assigns inode
//	      numbers), first-visit marks, lease revokes, events.
//	  while the strategy re-plans (sync only)
//	sweep (client ID order): job completion.
//
// The strategies differ only in plan, admit and the per-unit apply:
// sync (this file) routes each client's credit into runs of same-rank
// ops — resolving each queued op once per partition version and
// carrying the resolutions admission refused across ticks (window) —
// reserves budget per op, serves op by op and re-plans clients that
// stopped at a stream-gating op; write-back (wb.go) flushes buffered
// runs as batches into the client's FIFO, reserves budget per commit
// group and applies a batch at a time. Everything else — op resolution,
// the relay walk, stalls and backoff, op completion, data debt, the
// bucket-then-pool grant — has one definition below.
//
// Admission arbitrates the whole tick in shuffle order and reserves from
// the pools; serve spends what was reserved. A relay charge is the
// exception: it lands on its hop's live budget when the relay is made,
// flooring it at zero, so a unit admitted at a rank that relays for
// others can still stall there.
//
// RNG streams: the cluster stream (c.rand) draws the per-tick cohort
// order and the epoch-close balancing. A cohort is a fixed block of
// client IDs that owns a stream forked from the experiment seed at
// construction; the stream draws only the shuffle of the block's
// credited clients.

// engineCohortSize is the target number of clients per cohort; the
// cohort count is clamped to engineMaxCohorts. Both constants are model
// output: changing either moves every pinned digest.
const (
	engineCohortSize = 8
	engineMaxCohorts = 16
)

// execStatus is how the service of one unit ended.
type execStatus int

const (
	// execOK: the admitted prefix was served and the unit was admitted
	// whole.
	execOK execStatus = iota
	// execStall: a saturated or frozen target, or the admission cut;
	// the client stalls and retries next tick.
	execStall
	// execStallDown: the authoritative or a relaying rank is down;
	// retry with backoff and account the attempt as stalled-on-down.
	execStallDown
	// execDebt: the last op served moves data; the client blocks until
	// its debt is paid.
	execDebt
)

// unit is what admission schedules and a rank serves: n queued ops of
// one client bound for one rank, of which the budget arbitration
// admitted the prefix adm. A sync unit is a planned run (its ops'
// resolutions start at the head of the client's window when the unit is
// served); a write-back unit is a journaled batch.
type unit struct {
	client int32
	rank   int32
	n      int32
	adm    int32
	batch  *wbBatch
}

// window is one sync client's carried plan: routes[head+k] is the
// resolution of the client's k-th queued op under partition version
// ver. A resolution is a pure function of (inode, partition version) —
// for a create, of (parent, name hash, partition version) — and the
// tree has no unlink or rename, so plan resolves an op once and
// reuses the entry every tick admission refuses the op; what is never
// carried is everything read from live state (draws, lease routing,
// rank liveness, budgets, whether a create's name exists). A slot whose
// entry is the zero Entry (no directory is inode 0) is not resolved
// yet. plan writes a client's window; applyRun advances head beside
// CompleteOp, the only pop in sync mode, so head tracks the queue head.
type window struct {
	ver    uint64
	head   int32
	routes []routed
}

// engine holds the tick engine's amortized state.
type engine struct {
	c *Cluster

	// streams[k] shuffles cohort k: clients [k*n/len(streams),
	// (k+1)*n/len(streams)) of n.
	streams     []*rng.Source
	cohortOrder []int   // shuffled per tick
	order       []int32 // the tick's credited clients, in shuffled order
	active      []int32 // the clients still planning this phase, in order

	// Per-client tick state, indexed by client ID.
	credit       []int64
	participated []bool
	blocked      []bool
	// win is each client's carried plan (sync strategy only: nil in
	// write-back mode).
	win []window
	// runs is plan's scratch: the runs of the client being admitted.
	runs []unit

	avail []int32 // per rank: unreserved serve budget this tick
	// arena carves created inodes; chain is reach's scratch.
	arena namespace.InodeArena
	chain []namespace.MDSID

	// sched is the phase's schedule, rebuilt by admit: the admitted
	// units in admission order.
	sched []unit

	// wb is the write-back strategy's state (wb.go), non-nil only when
	// Config.Batching selects a real batching regime. The degenerate
	// {BatchSize:1, FlushEvery:1} configuration leaves it nil: that
	// client contract IS the sync strategy.
	wb *wbState
}

// newEngine builds the engine for a freshly constructed cluster,
// forking one RNG stream per cohort from the experiment seed. Cohort
// membership is a pure function of the client count.
func newEngine(c *Cluster, src *rng.Source) *engine {
	n := len(c.clients)
	e := &engine{
		c:            c,
		credit:       make([]int64, n),
		participated: make([]bool, n),
		blocked:      make([]bool, n),
	}
	nc := min((n+engineCohortSize-1)/engineCohortSize, engineMaxCohorts)
	for k := 0; k < nc; k++ {
		e.streams = append(e.streams, src.Fork(uint64(100+k)))
		e.cohortOrder = append(e.cohortOrder, k)
	}
	if bc := c.cfg.Batching; bc != nil && (bc.BatchSize > 1 || bc.FlushEvery > 1) {
		e.wb = newWBState(e, bc)
	} else {
		e.win = make([]window, n)
	}
	return e
}

// ensure sizes the per-rank state to the current server count (ranks
// can be added mid-run) without reallocating on the steady path.
func (e *engine) ensure() {
	nr := len(e.c.servers)
	if cap(e.avail) < nr {
		e.avail = make([]int32, nr)
	}
	e.avail = e.avail[:nr]
	if w := e.wb; w != nil {
		for len(w.depth) < nr {
			w.depth = append(w.depth, 0)
		}
	}
}

// serveTick runs the serve phase of one tick — the one loop both
// strategies run through (see the file comment).
func (e *engine) serveTick(tick, epoch int64) {
	c := e.c
	e.ensure()

	// Gate (client ID order): done/not-started, retry backoff, data
	// debt — then credit accrual for everyone who participates.
	anyActive := false
	for i, cl := range c.clients {
		e.participated[i] = false
		e.credit[i] = 0
		if cl.Done() || tick < cl.StartTick() {
			continue
		}
		if !cl.RetryReady(tick) {
			continue // backing off after failures against a down rank
		}
		if cl.Debt() > 0 {
			c.payDebt(cl)
			if cl.Debt() > 0 {
				continue // still blocked on the data path
			}
		}
		n := cl.AccrueCredit()
		e.participated[i] = true
		if n > 0 && !cl.Idle() {
			e.credit[i] = int64(n)
			anyActive = true
		}
		if e.wb != nil && cl.PendingOps() > 0 {
			// Buffered or journaled ops exist: flush-age triggers and
			// batch application must run even with no fresh credit.
			anyActive = true
		}
	}

	if anyActive {
		e.shuffle()
		clear(e.blocked)
		// The tick's serve-budget pools, drawn down by admission. One
		// pool per tick, not per phase: a client that re-plans after a
		// create competes for what the first phase left.
		for i, s := range c.servers {
			e.avail[i] = int32(s.RemainingBudget())
		}

		for {
			e.admit(tick)
			e.servePhase(tick, epoch)
			// Write-back never re-plans within a tick: credit is spent
			// at draw and a batch's outcome gates nothing.
			if e.wb != nil || !e.rebuildActive() {
				break
			}
		}
	}

	// End of tick: the completion sweep in client ID order over everyone
	// who participated this tick.
	for i, cl := range c.clients {
		if e.participated[i] && cl.MaybeFinish() {
			c.doneN++
			c.rec.AddJCT(tick)
			if c.tn != nil {
				c.rec.AddTenantJCT(cl.Tenant, tick)
			}
		}
	}
}

// admit rebuilds the phase's schedule, planning each active client in
// the tick's shuffled order just before the strategy's admission
// appends its admitted units.
func (e *engine) admit(tick int64) {
	e.sched = e.sched[:0]
	if e.wb != nil {
		e.wbAdmit(tick)
	} else {
		for _, ci := range e.active {
			e.admitRuns(ci, e.plan(ci, tick))
		}
	}
}

// admitOps draws want ops of the client first from its tenant's token
// bucket (QoS on) and then from the rank's budget pool, whose unit
// covers per ops (1 in sync, a commit group in write-back). It returns
// the bucket grant and the admitted count. The part of the grant the
// pool cannot cover is handed back — a pool stall is not a quota spend
// — and recorded as SLO debt: the tenant had quota but the cluster had
// no capacity. Noting the bucket's denial (grant < want) is the
// caller's. With uncontended buckets grant == want, so an idle QoS
// attachment is byte-identical to no attachment.
func (e *engine) admitOps(cl *client.Client, rank, want, per int32) (grant, adm int32) {
	tn := e.c.tn
	grant = want
	if tn != nil {
		grant = int32(tn.Take(cl.Tenant, int(want)))
	}
	units := (grant + per - 1) / per
	if a := e.avail[rank]; a < units {
		units = a
	}
	if adm = units * per; adm > grant {
		adm = grant
	}
	e.avail[rank] -= units
	if tn != nil {
		tn.Refund(cl.Tenant, int(grant-adm))
		tn.NoteStalled(cl.Tenant, int(grant-adm))
		tn.NoteAdmitted(cl.Tenant, int(adm))
		e.c.tnAdmittedTick += int64(adm)
	}
	return grant, adm
}

// shuffle draws the tick's client order: the cohort order from the
// cluster stream, then, cohort by cohort, the clients that accrued
// credit, shuffled from the cohort's own stream. A cohort's stream is
// consumed only when it has two such clients or more, so an idle
// cohort does not advance it.
func (e *engine) shuffle() {
	e.c.rand.ShuffleInts(e.cohortOrder)
	n, nc := len(e.c.clients), len(e.streams)
	e.order = e.order[:0]
	for _, k := range e.cohortOrder {
		lo := len(e.order)
		for ci := k * n / nc; ci < (k+1)*n/nc; ci++ {
			if e.credit[ci] > 0 {
				e.order = append(e.order, int32(ci))
			}
		}
		if seg := e.order[lo:]; len(seg) > 1 {
			e.streams[k].Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		}
	}
	e.active = append(e.active[:0], e.order...)
}

// endsRun reports whether op must be the last of its run: a data-path
// op blocks the client on its debt, and a create from a tree-reading
// stream must be adopted before the stream may draw again (the next
// recorded op can resolve a path through the created inode).
func (e *engine) endsRun(cl *client.Client, op *workload.Op) bool {
	if e.c.cfg.DataBandwidth > 0 && op.DataSize > 0 {
		return true
	}
	return op.Kind == workload.OpCreate && cl.StreamReadsTree()
}

// plan routes the client's whole remaining tick: its queued ops,
// bounded by credit, split into runs at authority switches. Planning
// stops after an op whose outcome gates the stream (endsRun); the
// client re-plans in the next phase once the outcome has landed. Only
// ops without a valid carried resolution are resolved (see window);
// without a resolver nothing is carried. The runs live in the engine's
// scratch until the next plan.
func (e *engine) plan(ci int32, tick int64) []unit {
	c := e.c
	cl := c.clients[ci]
	w := &e.win[ci]
	if ver := c.part.Version(); w.ver != ver || c.resolver == nil {
		w.ver, w.head = ver, int32(len(w.routes)) // nothing is carried
	}
	w.routes = w.routes[:copy(w.routes, w.routes[w.head:])]
	w.head = 0
	runs, credit := e.runs[:0], e.credit[ci]
	for k := 0; int64(k) < credit; k++ {
		if k == len(w.routes) {
			if cl.PeekOp(k, tick) == nil {
				break // stream exhausted with an empty queue
			}
			// Reslice and mark the slot unresolved; route writes the
			// rest. Appending routed{} would be a typed clear, a bulk
			// write barrier per drawn op while GC marks.
			w.routes = slices.Grow(w.routes, 1)[:k+1]
			w.routes[k].ent = namespace.Entry{}
		}
		r := &w.routes[k]
		if r.ent.Key.Dir == 0 {
			e.route(w.routes, k, cl) // just drawn
		}
		rank := int32(r.ent.Auth)
		if rep := c.rep; rep != nil && rep.LiveLeases() != 0 && !r.write {
			// A read on a leased subtree may serve at a lease holder
			// instead of the authority; the run then targets the
			// holder's rank and budget.
			if leases := rep.Leases(r.ent.Key); len(leases) != 0 {
				rank = e.leaseRank(r.ent, leases, r.target.Ino)
			}
		}
		if len(runs) == 0 || runs[len(runs)-1].rank != rank {
			runs = append(runs, unit{client: ci, rank: rank})
		}
		run := &runs[len(runs)-1]
		run.n++
		if r.ends {
			break
		}
	}
	e.runs = runs
	return runs
}

// route resolves the client's k-th queued op into its window slot.
// Scans issue many ops on one inode in a row: an op on the previous
// slot's target shares its governing entry.
func (e *engine) route(routes []routed, k int, cl *client.Client) {
	r, op := &routes[k], cl.OpAt(k)
	if k > 0 && e.c.resolver != nil && op.Target != nil && op.Target == routes[k-1].target {
		r.ent, r.target = routes[k-1].ent, op.Target
	} else {
		r.ent, r.target = e.c.resolveOp(op), op.Target
	}
	r.write, r.ends = op.Kind.IsWrite(), e.endsRun(cl, op)
}

// admitRuns is the sync strategy's admission of one client's planned
// runs: in sequence, each draws on its rank's per-tick serve budget and
// is scheduled. A run that does not fully fit cuts the client there:
// the run keeps its admitted prefix and the client's later runs are
// dropped (it will stall at the cut). With tenant QoS on a run is
// charged to its owner's token bucket BEFORE the rank pool, so an
// over-quota tenant is throttled at admission no matter how much rank
// budget is free; a bucket throttle cuts the plan like a pool shortfall
// but leaves the pool to the other tenants.
func (e *engine) admitRuns(ci int32, runs []unit) {
	cl := e.c.clients[ci]
	for _, u := range runs {
		if !e.c.servers[u.rank].Up() {
			// A down rank has no budget to arbitrate: the run is admitted
			// whole so its first op takes the stall-down path (backoff,
			// stalled-on-down accounting). The client blocks there, so
			// later runs reserve nothing.
			u.adm = u.n
			e.sched = append(e.sched, u)
			return
		}
		grant, adm := e.admitOps(cl, u.rank, u.n, 1)
		if grant < u.n {
			e.c.tn.NoteThrottled(cl.Tenant, int(u.n-grant))
		}
		u.adm = adm
		e.sched = append(e.sched, u)
		if adm < u.n {
			return
		}
	}
}

// leaseRank picks the rank that serves a read on a leased subtree: the
// target's inode number indexes uniformly into the live candidates
// (the primary plus the lease holders, in that fixed order), so a
// storm's reads spread evenly and every inode sticks to exactly one
// replica while the holder set is stable — its reads, and so its access
// history, stay on one rank. Routing on last-epoch loads instead
// oscillates: the loads are a full epoch stale, so whichever rank
// looked idle at epoch close absorbs the entire next epoch's stream
// and the roles flip every epoch. The uniform spread is stable and
// keeps every candidate under demand/n.
func (e *engine) leaseRank(ent namespace.Entry, leases []replica.Lease, ino namespace.Ino) int32 {
	c := e.c
	var cands [8]namespace.MDSID
	n := 0
	add := func(r namespace.MDSID) {
		if n < len(cands) && int(r) < len(c.servers) && c.servers[r].Up() {
			cands[n] = r
			n++
		}
	}
	add(ent.Auth)
	for _, l := range leases {
		if l.Rank != ent.Auth {
			add(l.Rank)
		}
	}
	if n == 0 {
		return int32(ent.Auth)
	}
	return int32(cands[ino%namespace.Ino(n)])
}

// rebuildActive keeps, for the next planning phase, the clients that
// finished their whole plan cleanly and still hold credit (a plan ends
// early at a stream-gating op, so there may be more tick to route), in
// the tick's shuffled order. A client that planned no run holds credit
// only when idle, so it drops out too.
func (e *engine) rebuildActive() bool {
	act := e.active[:0]
	for _, ci := range e.active {
		if !e.blocked[ci] && e.credit[ci] > 0 && !e.c.clients[ci].Idle() {
			act = append(act, ci)
		}
	}
	e.active = act
	return len(act) > 0
}

// servePhase applies the phase's schedule in admission order and parks
// each client whose unit did not end cleanly, skipping its later units.
// A client whose last op moved data pays what the data path can move
// this tick, and plans again next phase if that cleared its debt.
func (e *engine) servePhase(tick, epoch int64) {
	c := e.c
	for i := range e.sched {
		u := &e.sched[i]
		if e.blocked[u.client] {
			continue // an earlier unit of this client stalled this tick
		}
		cl, auth := c.clients[u.client], c.servers[u.rank]
		var st execStatus
		var at namespace.MDSID
		if u.batch != nil {
			st, at = e.applyBatch(auth, cl, u, tick, epoch)
		} else {
			st, at = e.applyRun(auth, cl, u, tick, epoch)
		}
		switch st {
		case execStallDown:
			e.stallDown(cl, at, tick)
		case execStall:
			e.stall(cl, at)
		case execDebt:
			c.payDebt(cl)
			e.blocked[u.client] = cl.Debt() > 0 || e.credit[u.client] <= 0
		}
	}
}

// stall parks the client for the rest of the tick after an attempt that
// could not be served, noting the stall against the rank that refused
// it (the authority, a relay hop, or — at the admission cut — the rank
// whose tick budget was reserved ahead of the op).
func (e *engine) stall(cl *client.Client, at namespace.MDSID) {
	e.c.servers[at].AddStalls(1)
	cl.Retain()
	e.blocked[cl.ID] = true
}

// stallDown is stall against a down rank: the attempt is accounted as
// stalled-on-down and the client enters capped-exponential backoff.
func (e *engine) stallDown(cl *client.Client, at namespace.MDSID, tick int64) {
	e.c.servers[at].AddStalls(1)
	e.c.stalledDown++
	cl.RetainBackoff(tick, at)
	if e.c.bus.Enabled(obs.EvBackoffEnter) {
		f := obs.AcquireF()
		f["client"], f["backoff"], f["retry_at"] = cl.ID, cl.Backoff(), tick+cl.Backoff()
		e.c.bus.Emit(obs.Event{Tick: tick, Type: obs.EvBackoffEnter, Fields: f})
	}
	e.blocked[cl.ID] = true
}

// complete retires the client's head op, which was just served:
// the backoff-exit event if the op had been backing off, the latency
// (run-wide and per tenant), and the debt of an op that moves data — in
// which case it reports true and the unit ends with execDebt.
func (e *engine) complete(cl *client.Client, data, tick int64) bool {
	c := e.c
	if cl.Backoff() > 0 && c.bus.Enabled(obs.EvBackoffExit) {
		f := obs.AcquireF()
		f["client"], f["reason"] = cl.ID, "served"
		c.bus.Emit(obs.Event{Tick: tick, Type: obs.EvBackoffExit, Fields: f})
	}
	lat := cl.CompleteOp(tick)
	c.rec.AddLatency(lat)
	if c.tn != nil {
		c.tnServedTick[cl.Tenant]++
		c.rec.AddTenantLatency(cl.Tenant, lat)
	}
	if c.cfg.DataBandwidth <= 0 || data <= 0 {
		return false
	}
	cl.AddDebt(data)
	return true
}

// reach walks the client's request for target to the authority of
// entry. A request that misses the client's authority cache relays
// along the authority chain, and the cache then learns the authority.
// A down or saturated hop refuses the request; otherwise every hop is
// charged at once. A chain can pass one rank twice (A→B→A), and the
// charge floors at zero.
func (e *engine) reach(cl *client.Client, entry namespace.Entry, target *namespace.Inode) (execStatus, namespace.MDSID) {
	if cached, ok := cl.CacheLookup(entry.Key); ok && cached == entry.Auth {
		return execOK, 0
	}
	c := e.c
	chain, _ := c.part.ResolveChainInto(e.chain, target)
	e.chain = chain[:0]
	hops := chain[:len(chain)-1]
	for _, h := range hops {
		if !c.servers[h].Up() {
			return execStallDown, h
		}
		if !c.servers[h].HasBudget() {
			return execStall, h
		}
	}
	for _, h := range hops {
		c.servers[h].AddForwardCharges(1)
	}
	c.forwards += int64(len(hops))
	cl.CacheStore(entry.Key, entry.Auth)
	return execOK, 0
}

// carve makes the file a create names, unlinked: the request reaches
// the authority through it, and it is linked once the op is served (the
// one create step of both strategies: carve, reach, link). An invalid
// name yields nil; its op completes as a raced create, which no rank
// serves, and the auditor's ops conservation counts it.
func (e *engine) carve(op *workload.Op) *namespace.Inode {
	in, err := e.arena.NewFile(op.Parent, op.Name, op.Size)
	if err != nil {
		e.c.racedCreates++
		return nil
	}
	return in
}

// applyRun is the sync strategy's per-unit apply: it attempts the run's
// admitted ops one by one — the queue head against the head of the
// client's window, its plan-time resolution — popping both together.
func (e *engine) applyRun(auth *mds.Server, cl *client.Client,
	u *unit, tick, epoch int64) (execStatus, namespace.MDSID) {
	w := &e.win[u.client]
	rank := namespace.MDSID(u.rank)
	for i := int32(0); i < u.adm; i++ {
		r := &w.routes[w.head]
		op := cl.OpAt(0)
		if st, at := e.execOp(rank, auth, cl, op, r, epoch); st != execOK {
			return st, at
		}
		if e.c.tn != nil {
			auth.AddTenantHeat(r.ent.Key, cl.Tenant, 1)
		}
		e.credit[u.client]--
		w.head++
		if e.complete(cl, op.DataSize, tick) {
			return execDebt, 0
		}
	}
	if u.adm < u.n {
		return execStall, rank // the admission cut
	}
	return execOK, 0
}

// execOp attempts one op against its serving rank. r is the op's
// plan-time resolution; a nil target is a create, whose file is linked
// once the op can no longer stall — a name taken since plan is served
// as the existing inode.
func (e *engine) execOp(rank namespace.MDSID, auth *mds.Server, cl *client.Client,
	op *workload.Op, r *routed, epoch int64) (execStatus, namespace.MDSID) {
	entry := r.ent
	if !auth.Up() {
		return execStallDown, rank
	}
	if e.c.migrator.IsFrozen(entry.Key) || !auth.HasBudget() {
		return execStall, rank
	}
	if rank != entry.Auth {
		// Lease serve: the plan routed this read to a
		// non-authoritative lease holder, which serves it from its
		// replica — no client-cache or relay work (the client holds the
		// lease grant; reads resolve to the holder directly).
		e.serve(auth, entry, r.target, epoch, false)
		e.c.leaseServes++
		return execOK, 0
	}
	target := r.target
	if target == nil {
		if target = e.carve(op); target == nil {
			return execOK, 0
		}
	}
	if st, at := e.reach(cl, entry, target); st != execOK {
		return st, at
	}
	if !auth.HasBudget() {
		return execStall, rank // a relay through this rank took its last unit
	}
	if r.target == nil {
		target, _ = e.c.tree.AdoptOrExisting(target)
	}
	e.serve(auth, entry, target, epoch, r.write)
	if r.write {
		e.c.revokeLease(entry.Key)
	}
	return execOK, 0
}

// serve records one access on the serving rank (the authority, or a
// lease holder for lease-served reads).
func (e *engine) serve(auth *mds.Server, entry namespace.Entry,
	in *namespace.Inode, epoch int64, write bool) {
	// Cannot fail: the caller checked HasBudget after the relay walk,
	// the last step that draws budget.
	if _, first := auth.ServeDeferVisit(entry, in, epoch, write); first {
		in.MarkVisited()
	}
}
