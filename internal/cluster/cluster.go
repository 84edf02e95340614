// Package cluster wires the simulator together: it builds the
// namespace, the MDS servers, the migration engine, the clients, and a
// balancer, then advances the whole system tick by tick (one tick = one
// second; the balancer runs every epoch, ten ticks by default, as in
// the paper). It also implements the cluster dynamics the evaluation
// exercises: MDS addition at runtime and staged client growth.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/audit"
	"repro/internal/balancer"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Fixed model parameters. No command, experiment or benchmark workload
// ever varied them, so they are constants of the model, not knobs.
const (
	// migrationRate is how many inodes an exporter ships per tick.
	migrationRate = 2000
	// maxActiveExports bounds concurrent exports per exporter.
	maxActiveExports = 2
	// queueTTLTicks expires queued (unstarted) export tasks.
	queueTTLTicks = 20
	// exportLatencyTicks is the fixed two-phase-commit floor cost of one
	// export, regardless of subtree size.
	exportLatencyTicks = 4
	// heatDecay is the per-epoch popularity decay (CephFS-style). Slow:
	// the accumulated popularity counter the paper criticizes — heat
	// keeps ranking already-scanned (dead) subtrees above the live scan
	// front for minutes.
	heatDecay = 0.97
	// historyWindows is the trace collector depth (cutting windows).
	historyWindows = 6
)

// Config describes one simulated deployment.
type Config struct {
	// MDS is the initial number of metadata servers.
	MDS int
	// Capacity is each MDS's maximum metadata ops per tick (the
	// paper's C, in IOPS since a tick is one second). ScheduleCapacity
	// changes one rank's, from any tick on.
	Capacity int
	// EpochTicks is the balancing epoch length (paper default: 10 s).
	EpochTicks int
	// Clients is the number of workload clients.
	Clients int
	// ClientRate is the base ops per tick per client.
	ClientRate float64
	// DataBandwidth is the OSD pool's total bytes per tick: an op with
	// data blocks its client until the pool has moved its bytes
	// (end-to-end experiments). 0 means no data path.
	DataBandwidth int64
	// Seed drives all randomness in the run.
	Seed uint64
	// Balancer is the policy under test.
	Balancer balancer.Balancer
	// Workload generates the namespace and the client op streams.
	Workload workload.Generator
	// RecoveryTicks is the failover latency window: how long after a
	// crash the dead rank's orphaned subtrees stay unowned (requests to
	// them stall) before survivors take them over. It models failure
	// detection plus journal replay (CephFS beacon grace + rejoin).
	RecoveryTicks int
	// Faults optionally scripts MDS crash/recover events for the run.
	Faults *fault.Schedule
	// Bus optionally receives structured trace events for the run
	// (epoch snapshots, migration lifecycle, faults, backoff
	// transitions). nil disables tracing at zero cost; tracing never
	// touches the RNG or tick ordering, so the same seed produces the
	// same run with tracing on or off.
	Bus *obs.Bus
	// Workers is ignored: a run is one goroutine.
	//
	// Deprecated: kept only because the benchmark harness still sets
	// it; it is deleted together with that use.
	Workers int
	// Audit optionally attaches a state auditor that validates
	// cross-module invariants at every epoch close (or every tick; see
	// audit.Options.EveryTick). Like the Bus, nil disables auditing at
	// zero cost, and the auditor is strictly read-only: the same seed
	// produces a byte-identical run with auditing on or off.
	Audit *audit.Auditor
	// Elastic optionally attaches an autoscaler controller. At every
	// epoch close the cluster feeds it a utilization snapshot; ScaleUp
	// decisions add ranks via AddMDS (the same epoch's rebalance then
	// fills them), ScaleDown decisions start a graceful drain (the rank
	// keeps serving while every subtree it governs is bulk-exported,
	// then it is decommissioned and leaves the balancer's view). nil
	// keeps the fixed-size behaviour at zero cost.
	Elastic *elastic.Controller
	// Replication optionally attaches a warm-standby replication
	// manager: every subtree entry gets R−1 standbys following the
	// primary through a shipped ops/heat journal, a crash promotes the
	// best surviving standby PromoteTicks later instead of waiting out
	// the cold RecoveryTicks takeover, and a background re-replicator
	// restores R after losses and drains. nil (the R=1 cluster) keeps
	// the cold-takeover behaviour at zero tick-path cost.
	Replication *replica.Manager
	// Batching enables write-back client batching with server-side
	// group commit (wb.go): clients buffer ops locally, flush them in
	// per-rank batches, and servers apply a batch through a
	// group-commit journal at one budget unit per BatchSize ops. nil
	// keeps the synchronous per-op path; the degenerate {1,1} setting
	// also runs the sync path (verbatim — the differential tests prove
	// byte-identity).
	Batching *BatchingConfig
	// Tenancy optionally attaches a multi-tenant QoS manager: every
	// client belongs to a tenant (tagged by the workload), admission
	// charges each run or batch to its tenant's token bucket before the
	// rank pool, fairness-aware balancing declines to migrate subtrees
	// hot solely from an over-quota tenant, and per-tenant SLO debt
	// feeds the autoscaler. nil — the default — keeps the single-tenant
	// path at zero cost, and an attached manager whose buckets never
	// run dry produces a byte-identical run (the differential tests
	// prove both).
	Tenancy *tenant.Manager
}

// BatchingConfig shapes the write-back mode.
type BatchingConfig struct {
	// BatchSize is the op count that makes a buffered run flushable and
	// the commit-group granularity on the server (ops per budget unit).
	BatchSize int
	// FlushEvery is the age bound: a run whose oldest op has been
	// buffered this many ticks flushes regardless of size. 1 means
	// every buffered run flushes every tick.
	FlushEvery int64
}

func (c *Config) defaults() {
	if c.MDS == 0 {
		c.MDS = 5
	}
	if c.Capacity == 0 {
		c.Capacity = 2000
	}
	if c.EpochTicks == 0 {
		c.EpochTicks = 10
	}
	if c.Clients == 0 {
		c.Clients = 40
	}
	if c.ClientRate == 0 {
		c.ClientRate = 150
	}
	if c.RecoveryTicks < 1 {
		c.RecoveryTicks = 20
	}
}

// validate rejects, after defaults, every configuration the simulator
// cannot run as asked: the one place bad input becomes an error instead
// of a panic further in or a silently wrong run.
func (c *Config) validate() error {
	switch {
	case c.Balancer == nil:
		return errors.New("cluster: config requires a balancer")
	case c.Workload == nil:
		return errors.New("cluster: config requires a workload")
	case c.MDS < 1:
		return fmt.Errorf("cluster: MDS must be >= 1, got %d", c.MDS)
	case c.Capacity < 1:
		return fmt.Errorf("cluster: capacity must be >= 1, got %d", c.Capacity)
	case c.EpochTicks < 1:
		return fmt.Errorf("cluster: epoch ticks must be >= 1, got %d", c.EpochTicks)
	case c.Clients < 1:
		return fmt.Errorf("cluster: clients must be >= 1, got %d", c.Clients)
	case !(0 < c.ClientRate && c.ClientRate <= math.MaxFloat64):
		return fmt.Errorf("cluster: client rate must be finite and > 0, got %v", c.ClientRate)
	case c.DataBandwidth < 0:
		return fmt.Errorf("cluster: data bandwidth must be >= 0, got %d", c.DataBandwidth)
	case c.Batching != nil && (c.Batching.BatchSize < 1 || c.Batching.FlushEvery < 1):
		return errors.New("cluster: batching requires BatchSize >= 1 and FlushEvery >= 1")
	case c.Replication != nil && c.Replication.Policy().PromoteTicks >= c.RecoveryTicks:
		// The cold takeover would fire first and clear the outage, so the
		// warm promotion pass would never find anything to promote.
		return fmt.Errorf("cluster: replication PromoteTicks %d must be below RecoveryTicks %d",
			c.Replication.Policy().PromoteTicks, c.RecoveryTicks)
	}
	return nil
}

// Cluster is one live simulation.
type Cluster struct {
	cfg Config

	tree *namespace.Tree
	part *namespace.Partition
	// resolver is the version-cached authority resolver; nil only in
	// tests that prove it invisible by resolving every op afresh.
	resolver *namespace.Resolver
	servers  []*mds.Server
	migrator *mds.Migrator
	clients  []*client.Client
	rand     *rng.Source
	rec      *metrics.Recorder
	bus      *obs.Bus

	tick  int64
	doneN int
	// dataLeft is the data path's unspent bytes this tick: Step refills
	// it to cfg.DataBandwidth and payDebt draws it down.
	dataLeft int64
	// The run's cumulative op-path counts. forwards counts relay hops
	// charged to non-authoritative ranks; stalledDown, attempts refused
	// because a rank was down; racedCreates, create ops completed without
	// an MDS serve because the name raced into existence (the auditor's
	// ops-conservation check reconciles client and server totals with
	// it); leaseServes, reads served by a non-authoritative lease holder.
	forwards, stalledDown, racedCreates, leaseServes int64

	auditor *audit.Auditor
	// orphanFn is the Orphaned closure handed to every audit pass,
	// built once so the audited tick loop does not allocate it.
	orphanFn func(namespace.MDSID) bool

	// engine is the phased serve engine; see engine.go. It owns all
	// per-tick client/rank scratch.
	engine *engine

	// Reusable per-tick scratch, so the steady-state tick loop does not
	// allocate: the per-MDS op sample and the live-load vector of epoch
	// close.
	perMDSBuf []int
	liveLoads []float64

	// Fault state: one record per crashed-and-unreassigned rank, and the
	// cumulative orphaned rank-ticks the recorder samples each tick.
	outages         map[namespace.MDSID]outage
	recoveryTickSum int64

	// Elastic state: the controller (nil = fixed-size cluster), the
	// in-flight drains keyed by rank, the static-pin registry (PinPath
	// records pins here so a drain can explicitly unpin before
	// exporting), and the cumulative counters the experiments report.
	// rankEpochs accumulates live ranks per closed epoch — the
	// "rank-epochs" capacity cost an elastic run is judged by.
	elastic    *elastic.Controller
	draining   map[namespace.MDSID]*drainState
	pins       map[namespace.FragKey]int
	rankEpochs int64
	scaleUps   int64
	drainsDone int64

	// Replication state: the manager (nil = R=1, no replication), the
	// partition version its groups were last reconciled against, the
	// environment closures built once at init, and the cumulative
	// warm-promotion counter.
	rep        *replica.Manager
	repVersion uint64
	repEnv     replica.Env
	promotions int64

	// Tenant QoS state (tenant.go in internal/tenant): the manager
	// (nil = single-tenant, zero tick-path cost), the engine-side
	// independent count of ops admitted this tick across all tenants
	// (the conservation audit reconciles it against the manager's own
	// books), and the per-tick served-per-tenant counts (the served <=
	// admitted audit reads them).
	tn             *tenant.Manager
	tnAdmittedTick int64
	tnServedTick   []int64

	// leaseWriteRevoked lists the keys write-invalidated during the
	// current tick (lease.go; reset each Step). The grant pass skips
	// them and the auditor checks they hold zero live leases at tick end.
	leaseWriteRevoked []namespace.FragKey

	// events holds scheduled cluster mutations, fired at the top of
	// their tick in submission order (events.go).
	events eventQueue
}

// outage describes one crashed rank whose subtrees are still orphaned:
// when it crashed, and its last load reading from before the crash (the
// takeover's load-share basis — by takeover time the dead rank has
// recorded only zero-load epochs).
type outage struct {
	crashedAt int64
	load      float64
}

// New builds a cluster per cfg, including the workload's namespace and
// client streams.
func New(cfg Config) (*Cluster, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tree := namespace.NewTree()
	part := namespace.NewPartition(tree, 0)
	src := rng.New(cfg.Seed)

	specs, err := cfg.Workload.Setup(tree, cfg.Clients, src.Fork(1))
	if err != nil {
		return nil, fmt.Errorf("cluster: workload setup: %w", err)
	}

	cl := &Cluster{
		cfg:      cfg,
		tree:     tree,
		part:     part,
		rand:     src.Fork(2),
		rec:      metrics.NewRecorder(cfg.MDS),
		bus:      cfg.Bus,
		outages:  make(map[namespace.MDSID]outage),
		auditor:  cfg.Audit,
		elastic:  cfg.Elastic,
		draining: make(map[namespace.MDSID]*drainState),
		pins:     make(map[namespace.FragKey]int),
	}
	cl.orphanFn = func(id namespace.MDSID) bool { _, ok := cl.outages[id]; return ok }
	cl.resolver = namespace.NewResolver(part)
	for i := 0; i < cfg.MDS; i++ {
		cl.servers = append(cl.servers,
			mds.NewServer(namespace.MDSID(i), cfg.Capacity, historyWindows, heatDecay))
	}
	cl.migrator = mds.NewMigrator(part, migrationRate, maxActiveExports, queueTTLTicks)
	cl.migrator.MinTicks = exportLatencyTicks
	cl.migrator.Bus = cfg.Bus
	if bc, ok := cfg.Balancer.(obs.BusCarrier); ok {
		bc.SetBus(cfg.Bus)
	}
	cl.migrator.OnComplete(func(t *mds.ExportTask) {
		if int(t.From) < len(cl.servers) {
			cl.servers[t.From].DropSubtreeStats(t.Key)
		}
	})
	// A migration endpoint is valid only when it names a live rank; the
	// migrator re-checks this at activation, so tasks planned before a
	// crash never ship a subtree to (or from) a dead server.
	cl.migrator.ValidRank = cl.up
	// The importer side is gated harder: a draining rank is a legal
	// exporter (it is being emptied) but must never receive a subtree,
	// so tasks planned before its drain started drop at activation.
	cl.migrator.ValidImporter = cl.importable
	for i, sp := range specs {
		cl.clients = append(cl.clients, client.New(i, sp, cfg.ClientRate))
	}
	if cfg.Tenancy != nil {
		counts, err := tenantCounts(specs)
		if err != nil {
			return nil, err
		}
		if err := cfg.Tenancy.Bind(counts); err != nil {
			return nil, fmt.Errorf("cluster: tenancy: %w", err)
		}
		cl.tn = cfg.Tenancy
		cl.tnServedTick = make([]int64, cfg.Tenancy.N())
		cl.rec.SetTenants(cfg.Tenancy.N())
		for _, s := range cl.servers {
			s.EnableTenants(cfg.Tenancy.N())
		}
	}
	cl.engine = newEngine(cl, src)
	if cfg.Replication != nil {
		cl.rep = cfg.Replication
		cl.initReplication()
	}
	if cfg.Faults != nil {
		cl.ApplyFaults(*cfg.Faults)
	}
	return cl, nil
}

// tenantCounts derives the per-tenant client populations from the
// workload's spec tags: the highest tenant index sizes the slice, and
// Manager.Bind rejects any tenant left without clients.
func tenantCounts(specs []workload.ClientSpec) ([]int, error) {
	max := 0
	for _, sp := range specs {
		if sp.Tenant < 0 {
			return nil, fmt.Errorf("cluster: client spec tagged with negative tenant %d", sp.Tenant)
		}
		if sp.Tenant > max {
			max = sp.Tenant
		}
	}
	counts := make([]int, max+1)
	for _, sp := range specs {
		counts[sp.Tenant]++
	}
	return counts, nil
}

// Tree returns the namespace.
func (c *Cluster) Tree() *namespace.Tree { return c.tree }

// Partition returns the live subtree partition.
func (c *Cluster) Partition() *namespace.Partition { return c.part }

// Migrator returns the migration engine.
func (c *Cluster) Migrator() *mds.Migrator { return c.migrator }

// Servers returns the MDS servers (shared slice; do not modify).
func (c *Cluster) Servers() []*mds.Server { return c.servers }

// Clients returns the clients (shared slice; do not modify).
func (c *Cluster) Clients() []*client.Client { return c.clients }

// Metrics returns the run's recorder.
func (c *Cluster) Metrics() *metrics.Recorder { return c.rec }

// Tick returns the current simulation tick.
func (c *Cluster) Tick() int64 { return c.tick }

// Done reports whether every client has finished.
func (c *Cluster) Done() bool { return c.doneN == len(c.clients) }

// ScheduleAddMDS arranges for n more MDSs to join at the given tick
// (the Figure 12(a) expansion experiment).
func (c *Cluster) ScheduleAddMDS(tick int64, n int) {
	c.events.schedule(tick, func() {
		for i := 0; i < n; i++ {
			c.AddMDS()
		}
	})
}

// PinPath statically pins the subtree rooted at the directory path to
// the given MDS rank — CephFS's manual subtree pinning
// (ceph.dir.pin). Pinned subtrees still migrate if a balancer chooses
// to move them; combine with a passive balancer for fully static
// placement. The pin is recorded so a graceful drain of the rank can
// explicitly unpin-and-export the subtree (drain wins over pinning:
// retiring a rank beats keeping a manual placement on it). Pinning to
// a down, draining, or decommissioned rank is refused.
func (c *Cluster) PinPath(path string, rank int) error {
	if rank < 0 || rank >= len(c.servers) {
		return fmt.Errorf("cluster: pin rank %d out of range [0,%d)", rank, len(c.servers))
	}
	if !c.importable(namespace.MDSID(rank)) {
		return fmt.Errorf("cluster: pin rank %d is %s, not an import target",
			rank, c.servers[rank].State())
	}
	dir, err := c.tree.Lookup(path)
	if err != nil {
		return fmt.Errorf("cluster: pin %q: %w", path, err)
	}
	if !dir.IsDir {
		return fmt.Errorf("cluster: pin %q: not a directory", path)
	}
	e := c.part.Carve(dir)
	c.part.SetAuth(e.Key, namespace.MDSID(rank))
	c.pins[e.Key] = rank
	return nil
}

// ScheduleCapacity arranges for the given rank's capacity to change at
// the given tick: heterogeneous hardware from tick 0 (the IF model
// still assumes the uniform C — the paper calls heterogeneity
// orthogonal, and the "hetero" experiment measures what that costs), or
// degradation injection later (a slow disk, a noisy neighbour, a
// partial failure). Non-positive capacities are clamped to 1 by the
// server.
func (c *Cluster) ScheduleCapacity(tick int64, rank, capacity int) {
	c.events.schedule(tick, func() {
		if rank >= 0 && rank < len(c.servers) {
			c.servers[rank].SetCapacity(capacity)
		}
	})
}

// CrashMDS takes the given rank down immediately: it stops serving, its
// queued and in-flight exports abort (authority rolled to the surviving
// side), and its remaining subtrees orphan — requests to them stall —
// until survivors take them over RecoveryTicks later. It returns false
// for an invalid or already-down rank, or when the rank is the last
// survivor — crashing it would leave nobody to take over and ops would
// stall forever.
func (c *Cluster) CrashMDS(rank int) bool {
	if rank < 0 || rank >= len(c.servers) || !c.servers[rank].Up() {
		return false
	}
	live := len(c.ranksWhere((*mds.Server).Up))
	if live <= 1 {
		return false
	}
	id := namespace.MDSID(rank)
	crashedAt := c.tick
	// The load is read before Crash: see outage.
	c.outages[id] = outage{crashedAt: crashedAt, load: c.servers[rank].CurrentLoad()}
	c.servers[rank].Crash()
	// A crash mid-drain cancels the drain: AbortRank below rolls the
	// in-flight exports' authority to their importers, and everything
	// the dead rank still governed is orphaned and handed to survivors
	// by the scheduled takeover — exactly once, through that one path.
	// If the rank later rejoins it comes back Active, not Draining.
	delete(c.draining, id)
	aborted := c.migrator.AbortRank(id)
	if c.engine.wb != nil {
		// The dead rank's unapplied group-commit journal is lost: every
		// batch in it re-queues its owner's outstanding suffix
		// client-side, exactly once (wb.go).
		c.engine.wbCrashRank(id, c.tick)
	}
	c.events.schedule(crashedAt+int64(c.cfg.RecoveryTicks), func() {
		c.reassignOrphans(id, crashedAt)
	})
	if c.rep != nil {
		// The dead rank's replica state is gone: drop it from every
		// standby set, and schedule the warm promotion pass well inside
		// the cold window. Whatever it still leads then moves to synced
		// standbys; the rest waits for the cold takeover above.
		c.dropRankReplicas(id, "crash")
		c.events.schedule(crashedAt+int64(c.rep.Policy().PromoteTicks), func() {
			c.promoteReplicas(id, crashedAt)
		})
	}
	if c.bus.Enabled(obs.EvCrash) {
		c.bus.Emit(obs.Event{Tick: crashedAt, Type: obs.EvCrash,
			Fields: obs.F{"rank": rank, "live": live - 1, "aborted": aborted}})
	}
	return true
}

// CrashHottest crashes the live rank with the highest load (last
// epoch's ops/sec, tie-broken by total ops served, then by rank) and
// returns its rank, or -1 when fewer than two ranks are live (crashing
// the last survivor would leave nobody to take over).
func (c *Cluster) CrashHottest() int {
	live := c.ranksWhere((*mds.Server).Up)
	if len(live) < 2 {
		return -1
	}
	best, bestLoad, bestOps := -1, -1.0, int64(-1)
	for _, i := range live {
		load, ops := c.servers[i].CurrentLoad(), c.servers[i].OpsTotal()
		if load > bestLoad || (load == bestLoad && ops > bestOps) {
			best, bestLoad, bestOps = i, load, ops
		}
	}
	c.CrashMDS(best)
	return best
}

// RecoverMDS brings a crashed rank back up immediately. Its heat and
// trace statistics are invalidated (see mds.Server.Rejoin); if its
// subtrees had not yet been taken over, the pending takeover is
// cancelled and they are simply valid again. Clients backing off
// against THIS rank have their residual backoff cleared — the rank is
// serving again, so waiting out the rest of an exponential backoff
// window would just extend the outage they observe. Clients backing
// off against a different, still-down rank keep their interval: a
// blanket clear would reset them to backoff=1 and let an unrelated
// recovery turn them loose to hammer a rank that is still dead. It
// returns false for an invalid, already-up, or decommissioned rank —
// decommissioning is terminal; a retired rank rejoins only as a brand
// new rank via AddMDS.
func (c *Cluster) RecoverMDS(rank int) bool {
	if rank < 0 || rank >= len(c.servers) || c.servers[rank].Up() ||
		c.servers[rank].Decommissioned() {
		return false
	}
	id := namespace.MDSID(rank)
	c.servers[rank].Rejoin()
	delete(c.outages, id)
	for _, cl := range c.clients {
		if cl.Backoff() > 0 && cl.BackoffRank() == id {
			cl.ClearBackoff()
			if c.bus.Enabled(obs.EvBackoffExit) {
				f := obs.AcquireF()
				f["client"], f["reason"] = cl.ID, "recovery"
				c.bus.EmitPooled(obs.Event{Tick: c.tick, Type: obs.EvBackoffExit, Fields: f})
			}
		}
	}
	if c.bus.Enabled(obs.EvRecover) {
		c.bus.Emit(obs.Event{Tick: c.tick, Type: obs.EvRecover, Fields: obs.F{"rank": rank}})
	}
	return true
}

// CrashPathOwner crashes whichever rank is currently authoritative for
// the directory path — the partition-scoped fault: it follows the
// subtree wherever the balancer has placed it. A subtree entry carved
// at the path itself wins (that rank governs the path's contents);
// otherwise the fault falls on the rank governing the path inode. It
// returns the crashed rank, or -1 when the path does not resolve or
// the rank cannot crash (already down, or the last survivor).
func (c *Cluster) CrashPathOwner(path string) int {
	in, err := c.tree.Lookup(path)
	if err != nil {
		return -1
	}
	entry, ok := c.part.EntryAt(namespace.FragKey{Dir: in.Ino, Frag: namespace.WholeFrag})
	if !ok {
		entry = c.governing(in)
	}
	if c.CrashMDS(int(entry.Auth)) {
		return int(entry.Auth)
	}
	return -1
}

// payDebt moves as much of the client's data-path debt as the tick's
// remaining bandwidth allows: the OSD pool is one budget of
// cfg.DataBandwidth bytes per tick, drained in payment order.
func (c *Cluster) payDebt(cl *client.Client) {
	if g := min(cl.Debt(), c.dataLeft); g > 0 {
		c.dataLeft -= g
		cl.PayDebt(g)
	}
}

// governing returns the entry governing the inode, through the
// cluster's version-cached resolver or — without one — by a full
// ancestor walk.
func (c *Cluster) governing(in *namespace.Inode) namespace.Entry {
	if c.resolver != nil {
		return c.resolver.Entry(in)
	}
	return c.part.GoverningEntry(in)
}

// routed is one op's resolution: the entry governing it and the inode
// it acts on. A create has no target — whether its name exists is live
// state, read when the create is served; every other op has one. write
// and ends are the op's Kind.IsWrite() and endsRun, filled by the sync
// plan so that a carried resolution is walked without the op.
type routed struct {
	ent    namespace.Entry
	target *namespace.Inode
	write  bool
	ends   bool
}

// resolveOp resolves one op: the governing entry of its target, or, for
// a create, the entry that governs the name under its parent — the
// child's own governing entry whether or not it exists yet
// (Partition.GoverningChildEntry), so a create is routed to the rank
// that owns its home without reading the directory.
func (c *Cluster) resolveOp(op *workload.Op) routed {
	if op.Kind != workload.OpCreate {
		return routed{target: op.Target, ent: c.governing(op.Target)}
	}
	hash := namespace.HashName(op.Name)
	if c.resolver != nil {
		return routed{ent: c.resolver.ChildEntry(op.Parent, hash)}
	}
	return routed{ent: c.part.GoverningChildEntry(op.Parent, hash)}
}

// ApplyFaults schedules every event of the fault schedule: a crash of
// a rank, of the hottest live rank at the tick (the adversarial failure
// of the failover experiment), or of whichever rank governs a path at
// the tick (partition-scoped), and rank recoveries.
func (c *Cluster) ApplyFaults(s fault.Schedule) {
	for _, ev := range s.Events {
		switch {
		case ev.Kind == fault.Crash && ev.Path != "":
			c.events.schedule(ev.Tick, func() { c.CrashPathOwner(ev.Path) })
		case ev.Kind == fault.Crash && ev.Rank == fault.HottestRank:
			c.events.schedule(ev.Tick, func() { c.CrashHottest() })
		case ev.Kind == fault.Crash:
			c.events.schedule(ev.Tick, func() { c.CrashMDS(ev.Rank) })
		case ev.Kind == fault.Recover:
			c.events.schedule(ev.Tick, func() { c.RecoverMDS(ev.Rank) })
		}
	}
}

// ranksWhere returns, in rank order, the ranks whose server satisfies
// pred — the one walk behind every rank-set accessor and count.
func (c *Cluster) ranksWhere(pred func(*mds.Server) bool) []int {
	var out []int
	for i, s := range c.servers {
		if pred(s) {
			out = append(out, i)
		}
	}
	return out
}

// isActive is the predicate of a rank that serves and may import: up
// and not being emptied.
func isActive(s *mds.Server) bool { return s.State() == mds.RankActive }

// DownRanks returns the currently-crashed ranks in rank order. A
// decommissioned rank is not down — it left the cluster on purpose and
// is never a takeover source or recovery target — so it is excluded.
func (c *Cluster) DownRanks() []int {
	return c.ranksWhere(func(s *mds.Server) bool { return s.State() == mds.RankDown })
}

// DrainingRanks returns the ranks currently mid-drain in rank order.
func (c *Cluster) DrainingRanks() []int { return c.ranksWhere((*mds.Server).Draining) }

// ServingRanks counts ranks currently serving requests (active or
// draining).
func (c *Cluster) ServingRanks() int { return len(c.ranksWhere((*mds.Server).Up)) }

// drainState tracks one in-flight graceful drain.
type drainState struct {
	startTick    int64
	startEntries int
}

// up reports whether the rank exists and is serving (active or
// draining): a legal migration endpoint on the exporting side.
func (c *Cluster) up(r namespace.MDSID) bool {
	return int(r) < len(c.servers) && c.servers[r].Up()
}

// importable reports whether the rank is a legal import target: in
// range, serving, and not being emptied. This is the predicate behind
// both the balancer view's Importable and the migrator's ValidImporter
// activation gate.
func (c *Cluster) importable(r namespace.MDSID) bool {
	return r >= 0 && int(r) < len(c.servers) && isActive(c.servers[r])
}

// liveOutage returns the outage a failover pass scheduled at crashedAt
// acts on. ok is false for a stale invocation: the rank rejoined, or
// crashed again later and a newer pass owns the failover.
func (c *Cluster) liveOutage(dead namespace.MDSID, crashedAt int64) (o outage, ok bool) {
	o, ok = c.outages[dead]
	return o, ok && o.crashedAt == crashedAt
}

// spread hands out subtrees to the target with the least projected
// load, one share at a time, so neither a takeover nor a drain dumps a
// whole rank on one idle survivor.
type spread struct {
	ids []namespace.MDSID
	eff []float64
}

// newSpread starts a spread over the ranks at their current loads.
func (c *Cluster) newSpread(ranks []int) spread {
	sp := spread{ids: make([]namespace.MDSID, len(ranks)), eff: make([]float64, len(ranks))}
	for k, r := range ranks {
		sp.ids[k], sp.eff[k] = namespace.MDSID(r), c.servers[r].CurrentLoad()
	}
	return sp
}

// charge adds planned load to a target (no-op for a rank outside the
// spread).
func (sp *spread) charge(id namespace.MDSID, load float64) {
	for k, r := range sp.ids {
		if r == id {
			sp.eff[k] += load
			return
		}
	}
}

// next returns the least-loaded target (lowest rank on ties) and
// charges it share.
func (sp *spread) next(share float64) namespace.MDSID {
	best := 0
	for k := 1; k < len(sp.eff); k++ {
		if sp.eff[k] < sp.eff[best] {
			best = k
		}
	}
	sp.eff[best] += share
	return sp.ids[best]
}

// reassignOrphans executes the failover takeover for a rank that
// crashed at crashedAt: every subtree entry still owned by the dead
// rank moves to a surviving rank, least-loaded first (each takeover
// adds the orphan's estimated load share, so one idle survivor does not
// swallow the entire dead rank). Stale invocations — the rank rejoined,
// or crashed again later — are no-ops; if no survivor is live the
// takeover retries every tick until one is.
func (c *Cluster) reassignOrphans(dead namespace.MDSID, crashedAt int64) {
	o, ok := c.liveOutage(dead, crashedAt)
	if !ok {
		return
	}
	entries := c.part.EntriesOf(dead)
	if len(entries) == 0 {
		delete(c.outages, dead)
		return
	}
	// Survivors are preferably active ranks; a draining rank only takes
	// orphans when nobody else is up (the drain pump then re-exports
	// them, so they still end on an active rank).
	live := c.ranksWhere(isActive)
	if len(live) == 0 {
		live = c.ranksWhere((*mds.Server).Up)
	}
	if len(live) == 0 {
		c.events.schedule(c.tick+1, func() { c.reassignOrphans(dead, crashedAt) })
		return
	}
	// The dead rank's pre-crash load, spread evenly across its entries,
	// approximates what each takeover adds to a survivor. Reading
	// CurrentLoad() here instead would see only the zero-load epochs
	// recorded while the rank was down (RecoveryTicks exceeds an epoch),
	// collapsing the load-weighted spread to uniform shares of 1 — the
	// exact "one idle survivor swallows the whole dead rank" failure
	// this spread exists to avoid.
	share := o.load / float64(len(entries))
	if share <= 0 {
		share = 1
	}
	sp := c.newSpread(live)
	for _, e := range entries {
		c.part.SetAuth(e.Key, sp.next(share))
	}
	c.rec.AddRecovery(metrics.RecoveryEvent{
		Rank:         int(dead),
		CrashTick:    crashedAt,
		ReassignTick: c.tick,
		Entries:      len(entries),
	})
	if c.bus.Enabled(obs.EvTakeover) {
		c.bus.Emit(obs.Event{Tick: c.tick, Type: obs.EvTakeover, Fields: obs.F{
			"rank": int(dead), "entries": len(entries),
			"crash_tick": crashedAt, "waited": c.tick - crashedAt,
			"survivors": len(live),
		}})
	}
	delete(c.outages, dead)
}

// AddMDS immediately grows the cluster by one server and returns it.
func (c *Cluster) AddMDS() *mds.Server {
	id := namespace.MDSID(len(c.servers))
	s := mds.NewServer(id, c.cfg.Capacity, historyWindows, heatDecay)
	if c.tn != nil {
		s.EnableTenants(c.tn.N())
	}
	c.servers = append(c.servers, s)
	c.rec.GrowMDS(len(c.servers))
	return s
}

// StartDrain begins a graceful drain of the given rank: it flips to
// Draining — still serving, no longer an import target — and the drain
// pump bulk-exports every subtree it governs until it owns nothing,
// at which point it is decommissioned. Subtrees pinned to the rank by
// PinPath are unpinned and exported like any other (drain wins over
// pinning: retiring the rank beats honouring a manual placement on
// it). Returns false for an out-of-range or non-active rank, when
// the rank is the last active one — draining it would leave no import
// target for its subtrees — or when the rank has an export actively
// importing into it (the in-flight transfer would land on a draining
// rank; retry once it settles, as pickDrainVictim does).
func (c *Cluster) StartDrain(rank int) bool {
	if rank < 0 || rank >= len(c.servers) {
		return false
	}
	inboundActive := false
	c.migrator.ForEachActive(func(t *mds.ExportTask) {
		if t.To == namespace.MDSID(rank) {
			inboundActive = true
		}
	})
	if inboundActive {
		return false
	}
	if len(c.ranksWhere(isActive)) <= 1 {
		return false
	}
	if !c.servers[rank].StartDrain() {
		return false
	}
	id := namespace.MDSID(rank)
	unpinned := 0
	for k, r := range c.pins {
		if r == rank {
			delete(c.pins, k)
			unpinned++
		}
	}
	entries := len(c.part.EntriesOf(id))
	c.draining[id] = &drainState{startTick: c.tick, startEntries: entries}
	if c.rep != nil {
		// A draining rank is leaving: its standby copies retire with it
		// (read leases included) and the re-replicator restores R on
		// ranks that stay.
		c.dropRankReplicas(id, "drain")
	}
	if c.bus.Enabled(obs.EvDrainStart) {
		c.bus.Emit(obs.Event{Tick: c.tick, Type: obs.EvDrainStart,
			Fields: obs.F{"rank": rank, "entries": entries, "unpinned": unpinned}})
	}
	return true
}

// pickDrainVictim selects the rank a ScaleDown decision retires: the
// least-loaded active rank, preferring the highest rank on ties (later
// additions retire first). Ranks with inbound exports queued or in
// flight are skipped — draining one would strand those imports at the
// activation gate and break the "nothing imports into a draining rank"
// invariant the auditor enforces. Returns -1 when no rank qualifies.
func (c *Cluster) pickDrainVictim() int {
	inbound := make(map[namespace.MDSID]bool)
	note := func(t *mds.ExportTask) { inbound[t.To] = true }
	c.migrator.ForEachQueued(note)
	c.migrator.ForEachActive(note)
	best, bestLoad := -1, 0.0
	for i, s := range c.servers {
		if !s.Up() || s.Draining() || inbound[namespace.MDSID(i)] {
			continue
		}
		load := s.CurrentLoad()
		if best < 0 || load < bestLoad || (load == bestLoad && i > best) {
			best, bestLoad = i, load
		}
	}
	return best
}

// pumpDrains advances every in-flight drain by one tick: ranks that
// govern nothing and have no exports queued or in flight are
// decommissioned; the rest get drain exports submitted for every
// governed subtree not already pending and not frozen (a frozen
// subtree is mid-commit on an earlier export — it will either leave on
// its own or come back as governed next tick). Targets are the
// importable ranks, least projected load first, where the projection
// counts load already planned into a target by earlier pump ticks so a
// multi-epoch drain spreads instead of dumping on one survivor.
func (c *Cluster) pumpDrains(tick int64) {
	for i, s := range c.servers {
		id := namespace.MDSID(i)
		ds, ok := c.draining[id]
		if !ok {
			continue
		}
		entries := c.part.EntriesOf(id)
		queued, act := c.migrator.TasksFor(id)
		if len(entries) == 0 {
			if queued == 0 && act == 0 {
				c.finishDrain(id, ds, tick)
			}
			continue
		}
		targets := c.ranksWhere(isActive)
		if len(targets) == 0 {
			continue // no import target this tick; retry next tick
		}
		sp := c.newSpread(targets)
		project := func(t *mds.ExportTask) { sp.charge(t.To, t.PlannedLoad) }
		c.migrator.ForEachQueued(project)
		c.migrator.ForEachActive(project)
		share := s.CurrentLoad() / float64(len(entries))
		if share <= 0 {
			share = 1
		}
		for _, e := range entries {
			if c.migrator.InTransit(e.Key, id) {
				continue
			}
			c.migrator.SubmitDrain(e.Key, id, sp.next(share), share, tick)
		}
	}
}

// finishDrain decommissions a fully-emptied draining rank.
func (c *Cluster) finishDrain(id namespace.MDSID, ds *drainState, tick int64) {
	if c.engine.wb != nil {
		// Batches of a backing-off client can outlive the drain in the
		// rank's group-commit journal (live clients re-resolve and move
		// theirs); re-queue them client-side before the rank retires.
		c.engine.wbCrashRank(id, tick)
	}
	c.servers[id].Decommission()
	delete(c.draining, id)
	c.drainsDone++
	if c.bus.Enabled(obs.EvDrainComplete) {
		c.bus.Emit(obs.Event{Tick: tick, Type: obs.EvDrainComplete,
			Fields: obs.F{"rank": int(id), "entries": ds.startEntries,
				"waited": tick - ds.startTick}})
	}
}

// elasticStep feeds the autoscaler one epoch snapshot and applies its
// decision. Runs at epoch close, before the balancer, so a scale-up's
// fresh ranks are import targets in the same epoch's rebalance.
func (c *Cluster) elasticStep(tick, epoch int64, ifv float64) {
	var load float64
	for _, i := range c.ranksWhere((*mds.Server).Up) {
		load += c.servers[i].CurrentLoad()
	}
	active, drainingN := len(c.ranksWhere(isActive)), len(c.DrainingRanks())
	snap := elastic.Snapshot{
		Epoch:         epoch,
		ActiveRanks:   active,
		DrainingRanks: drainingN,
		Load:          load,
		Capacity:      float64(c.cfg.Capacity),
		IF:            ifv,
	}
	if c.tn != nil {
		// Pool-stall debt only (bucket throttles are intended and never
		// count), so an aggressor being throttled cannot trigger
		// scale-up — only victims starved of capacity can.
		snap.MaxTenantDebt = c.tn.MaxDebt()
	}
	d := c.elastic.Observe(snap)
	switch d.Action {
	case elastic.ScaleUp:
		for i := 0; i < d.Delta; i++ {
			c.AddMDS()
		}
		c.scaleUps++
	case elastic.ScaleDown:
		if v := c.pickDrainVictim(); v >= 0 {
			c.StartDrain(v)
		}
	default:
		return
	}
	if c.bus.Enabled(obs.EvScaleDecision) {
		c.bus.Emit(obs.Event{Tick: tick, Type: obs.EvScaleDecision, Fields: obs.F{
			"action": d.Action.String(), "delta": d.Delta, "reason": d.Reason,
			"util": d.Util, "if": ifv, "active": active, "draining": drainingN,
		}})
	}
}

// SettleDrains keeps the simulation stepping after the workload ends
// until every in-flight drain has completed and the autoscaler has
// shrunk the cluster back to its floor (the idle cluster drains toward
// Policy.MinRanks), bounded by maxTicks. It returns the tick at which
// it stopped, and is a no-op without an elastic controller.
func (c *Cluster) SettleDrains(maxTicks int64) int64 {
	if c.elastic == nil {
		return c.tick
	}
	minRanks := c.elastic.Policy().MinRanks
	limit := c.tick + maxTicks
	for c.tick < limit {
		if len(c.draining) == 0 && len(c.ranksWhere(isActive)) <= minRanks {
			break
		}
		c.Step()
	}
	return c.tick
}

// RankEpochs returns the cumulative serving-rank-epochs of the run —
// the capacity bill an elastic configuration is judged by against a
// static fleet.
func (c *Cluster) RankEpochs() int64 { return c.rankEpochs }

// ScaleUps returns how many scale-up decisions were applied.
func (c *Cluster) ScaleUps() int64 { return c.scaleUps }

// DrainsDone returns how many graceful drains completed.
func (c *Cluster) DrainsDone() int64 { return c.drainsDone }

// Step advances the simulation one tick.
func (c *Cluster) Step() {
	tick := c.tick
	epoch := tick / int64(c.cfg.EpochTicks)

	c.events.runDue(tick)

	for _, s := range c.servers {
		s.BeginTick()
	}
	if c.tn != nil {
		// Refill the token buckets and reset the tick's admission books
		// before any admission runs (like server BeginTick).
		c.tn.BeginTick()
		c.tnAdmittedTick = 0
		clear(c.tnServedTick)
	}
	c.dataLeft = c.cfg.DataBandwidth
	c.migrator.Tick(tick)
	c.leaseWriteRevoked = c.leaseWriteRevoked[:0] // new tick, new write-invalidation window
	if len(c.draining) != 0 {
		// Drains in flight: keep the bulk export fed. The guard keeps
		// the fixed-size (and between-drains) tick loop allocation-free.
		c.pumpDrains(tick)
	}

	c.engine.serveTick(tick, epoch)

	if c.tn != nil && c.bus.Enabled(obs.EvTenantThrottle) {
		// Post-serve sweep: one event per tenant the buckets
		// throttled this tick. Uncontended buckets emit nothing, so an
		// idle QoS attachment leaves the trace byte-identical.
		for t := 0; t < c.tn.N(); t++ {
			if n := c.tn.ThrottledTick(t); n > 0 {
				f := obs.AcquireF()
				f["tenant"], f["n"], f["tokens"] = t, n, c.tn.Tokens(t)
				c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvTenantThrottle, Fields: f})
			}
		}
	}

	if cap(c.perMDSBuf) < len(c.servers) {
		c.perMDSBuf = make([]int, len(c.servers))
	}
	perMDS := c.perMDSBuf[:len(c.servers)]
	for i, s := range c.servers {
		perMDS[i] = s.OpsThisTick()
	}
	c.rec.SampleTick(tick, perMDS, c.migrator.MigratedInodes(), c.forwards)
	c.recoveryTickSum += int64(len(c.outages))
	c.rec.SampleFaults(tick, c.stalledDown, c.migrator.AbortedTasks(), c.recoveryTickSum)

	if (tick+1)%int64(c.cfg.EpochTicks) == 0 {
		c.endEpoch(tick, epoch)
	}
	if c.rep != nil {
		// After the epoch close so balancer carves and drain exports
		// from this tick are already in the partition the groups
		// reconcile against (and the auditor sees groups == entries).
		c.pumpReplication(tick)
	}
	if c.auditor != nil &&
		(c.auditor.EveryTick() || (tick+1)%int64(c.cfg.EpochTicks) == 0) {
		c.auditor.Check(audit.State{
			Tick:              tick,
			Tree:              c.tree,
			Partition:         c.part,
			Resolver:          c.resolver,
			Migrator:          c.migrator,
			Servers:           c.servers,
			Clients:           c.clients,
			Orphaned:          c.orphanFn,
			Forwards:          c.forwards,
			RacedCreates:      c.racedCreates,
			Journaled:         c.engine.journaled(),
			Replicas:          c.rep,
			LeaseWriteRevoked: c.leaseWriteRevoked,
			Tenancy:           c.tn,
			TenantAdmitted:    c.tnAdmittedTick,
			TenantServed:      c.tnServedTick,
		})
	}
	c.tick++
}

// Auditor returns the attached state auditor (nil when auditing is
// disabled). The returned value is nil-safe: Err(), Passes(), and
// Violations() work on a nil auditor.
func (c *Cluster) Auditor() *audit.Auditor { return c.auditor }

func (c *Cluster) endEpoch(tick, epoch int64) {
	// Epoch bookkeeping runs on every server (down ones record a zero
	// epoch), but the imbalance factor is evaluated over live ranks
	// only — a crashed server is an availability event, not imbalance.
	liveLoads := c.liveLoads[:0]
	for _, s := range c.servers {
		load := s.EndEpoch(c.cfg.EpochTicks)
		if s.Up() {
			liveLoads = append(liveLoads, load)
		}
	}
	if c.tn != nil {
		// Close the tenant epoch before the autoscaler observes it, so
		// this epoch's SLO debt feeds this epoch's scaling decision.
		c.tn.EndEpoch()
	}
	c.liveLoads = liveLoads[:0]
	c.rankEpochs += int64(len(liveLoads))
	res := core.IFModel{}.Compute(liveLoads, float64(c.cfg.Capacity))
	c.rec.SampleEpoch(tick, res.IF, res.CoV)
	if c.bus.Enabled(obs.EvEpoch) {
		f := obs.AcquireF()
		f["epoch"], f["if"], f["cov"], f["live"] = epoch, res.IF, res.CoV, len(liveLoads)
		c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvEpoch, Fields: f})
	}
	if c.bus.Enabled(obs.EvRank) {
		for i, s := range c.servers {
			queued, active := c.migrator.TasksFor(namespace.MDSID(i))
			f := obs.AcquireF()
			f["rank"], f["epoch"], f["load"] = i, epoch, s.CurrentLoad()
			f["ops"], f["stalls"] = s.OpsTotal(), s.Stalls()
			f["heat"], f["queued"], f["active"] = s.HeatEntries(), queued, active
			f["up"], f["state"] = s.Up(), s.State().String()
			c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvRank, Fields: f})
		}
	}
	if c.elastic != nil {
		c.elasticStep(tick, epoch, res.IF)
	}
	if c.leasesEnabled() {
		// Carve hot read-dominated directories before the rebalance, so
		// migration planning sees the carved entries; lease grants
		// themselves run every tick in pumpReplication.
		c.leaseStep()
	}
	c.cfg.Balancer.Rebalance(&view{c: c, epoch: epoch})
}

// Run advances the simulation by the given number of ticks.
func (c *Cluster) Run(ticks int64) {
	for i := int64(0); i < ticks; i++ {
		c.Step()
	}
}

// RunUntilDone advances until every client finishes or maxTicks pass.
// It returns the tick at which it stopped.
func (c *Cluster) RunUntilDone(maxTicks int64) int64 {
	for c.tick < maxTicks && !c.Done() {
		c.Step()
	}
	return c.tick
}

// view adapts Cluster to balancer.View.
type view struct {
	c     *Cluster
	epoch int64
}

func (v *view) Tick() int64                           { return v.c.tick }
func (v *view) Epoch() int64                          { return v.epoch }
func (v *view) EpochTicks() int                       { return v.c.cfg.EpochTicks }
func (v *view) NumMDS() int                           { return len(v.c.servers) }
func (v *view) Server(id namespace.MDSID) *mds.Server { return v.c.servers[id] }
func (v *view) Up(id namespace.MDSID) bool            { return v.c.up(id) }
func (v *view) Importable(id namespace.MDSID) bool    { return v.c.importable(id) }
func (v *view) Partition() *namespace.Partition       { return v.c.part }
func (v *view) Migrator() *mds.Migrator               { return v.c.migrator }
func (v *view) Capacity() float64                     { return float64(v.c.cfg.Capacity) }

// Held implements balancer.View: the subtree is pinned where it is by
// a mechanism other than migration, so every policy's candidate
// enumeration and Lunule's housekeeping leave it alone. Always false
// with leases and tenancy off, so the balancer behaves exactly as it
// would without them.
func (v *view) Held(key namespace.FragKey) bool {
	return v.c.readLeased(key) || v.c.tenantThrottled(key)
}

// readLeased: a subtree currently served under read leases — or one
// that qualifies and is waiting for its standbys to sync — is handled
// by replication, not migration. Moving it would invalidate (or
// forestall) the leases and re-concentrate its read storm on the new
// authority; the pending case matters because a freshly carved hot
// directory is exportable for the epoch or two its replication group
// needs to sync, and exporting it restarts that clock.
func (c *Cluster) readLeased(key namespace.FragKey) bool {
	if !c.leasesEnabled() {
		return false
	}
	if c.leased(key) {
		return true
	}
	e, ok := c.part.EntryAt(key)
	if !ok {
		return false
	}
	_, ok = c.leaseQualifies(e)
	return ok
}

// tenantThrottled: a subtree whose heat comes dominantly from a tenant
// the token buckets throttled last epoch is hot because that tenant is
// over quota — migrating it would spread a noisy neighbour across more
// ranks instead of containing it, so it stays where admission already
// throttles it. The root entry is exempt: it aggregates every tenant's
// heat, so holding it would pin the whole namespace on its rank the
// moment any tenant is throttled, innocent subtrees included; once a
// child is carved into its own entry it gets its own attribution.
func (c *Cluster) tenantThrottled(key namespace.FragKey) bool {
	if c.tn == nil || key == (namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}) {
		return false
	}
	e, ok := c.part.EntryAt(key)
	if !ok || int(e.Auth) >= len(c.servers) {
		return false
	}
	t := c.servers[e.Auth].DominantTenant(key)
	return t >= 0 && c.tn.ThrottledLastEpoch(t)
}

// Tenancy returns the attached tenant QoS manager (nil when the run is
// single-tenant).
func (c *Cluster) Tenancy() *tenant.Manager { return c.tn }
