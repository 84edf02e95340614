// Package audit validates cross-module invariants of a running cluster:
// partition structure and authority liveness, governed-inode
// conservation, resolver-cache agreement, first-visit counter bounds,
// migration freeze windows and counter reconciliation, client
// credit/debt/backoff bounds, heat non-negativity, ops conservation and
// liveness. The auditor is strictly
// read-only — it never mutates simulation state, touches the RNG, or
// perturbs tick ordering — so a run with the auditor enabled is
// byte-identical to the same run without it. A nil *Auditor is the
// zero-cost disabled state, mirroring the obs bus pattern.
//
// The same invariant checks double as the oracle of the package's fuzz
// targets: randomized partition/fragment/migration op sequences are
// valid exactly when the checks hold after every step.
package audit

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/replica"
	"repro/internal/tenant"
)

// Violation is one invariant failure found by an audit pass.
type Violation struct {
	Tick  int64  // tick the failing pass ran at
	Check string // invariant family, e.g. "partition/authority"
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("tick %d: %s: %s", v.Tick, v.Check, v.Msg)
}

// Options configures an Auditor.
type Options struct {
	// EveryTick runs the audit on every tick instead of only at epoch
	// close. Epoch cadence catches everything eventually; tick cadence
	// pins a violation to the tick that introduced it.
	EveryTick bool
}

const (
	// resolveSamples is how many inodes each pass cross-checks between
	// the resolver cache and a fresh ancestor walk. Sampling is a
	// deterministic stride that rotates with the pass counter, so
	// repeated passes cover different inodes without RNG.
	resolveSamples = 64
	// maxViolations caps the retained violations; checks keep running
	// after the cap but stop recording.
	maxViolations = 100
	// livenessTicks is how long ops may stay outstanding, with a rank up
	// and no op served, before a pass records a liveness violation: two
	// full client backoffs, so one cannot trip it.
	livenessTicks = 2 * client.MaxBackoffTicks
)

// Auditor runs invariant checks over cluster state. The zero value is
// not useful; construct with New. A nil *Auditor is valid and disabled:
// every method is nil-receiver-safe.
type Auditor struct {
	opt        Options
	passes     int64
	violations []Violation
	// done is the client ops completed at the last pass; progress is the
	// last pass's tick at which an op had been served since the pass
	// before, no op was outstanding, or no rank was up.
	done, progress int64
}

// New creates an auditor.
func New(opt Options) *Auditor { return &Auditor{opt: opt} }

// EveryTick reports whether the auditor wants tick cadence. Nil-safe.
func (a *Auditor) EveryTick() bool { return a != nil && a.opt.EveryTick }

// Passes returns how many audit passes have run. Nil-safe.
func (a *Auditor) Passes() int64 {
	if a == nil {
		return 0
	}
	return a.passes
}

// Violations returns the recorded violations (shared slice). Nil-safe.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// Err returns nil when no invariant has been violated, and otherwise an
// error summarizing the first violation and the total count. Nil-safe,
// so callers can unconditionally check cfg.Audit.Err() after a run.
func (a *Auditor) Err() error {
	if a == nil || len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s), first: %s",
		len(a.violations), a.violations[0])
}

func (a *Auditor) failf(tick int64, check, format string, args ...any) {
	a.record(Violation{Tick: tick, Check: check, Msg: fmt.Sprintf(format, args...)})
}

// record keeps a violation, up to maxViolations of them.
func (a *Auditor) record(v Violation) {
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
}

// State is the read-only snapshot of one audit pass. Tree, Partition,
// Migrator, Servers, and Clients are required; the rest degrade
// gracefully: a nil Resolver skips the cache check, a nil Orphaned
// treats no rank as orphan-tracked.
type State struct {
	Tick      int64
	Tree      *namespace.Tree
	Partition *namespace.Partition
	Resolver  *namespace.Resolver
	Migrator  *mds.Migrator
	Servers   []*mds.Server
	Clients   []*client.Client
	// Orphaned reports whether a rank is down with its subtrees still
	// tracked for takeover (such entries legitimately point at a dead
	// rank during the recovery window).
	Orphaned func(namespace.MDSID) bool
	// Forwards is the cluster's cumulative forwarded-hop counter.
	Forwards int64
	// RacedCreates counts create ops completed without an MDS serve
	// because the name raced into existence (the one legitimate gap
	// between client ops-done and server ops-served).
	RacedCreates int64
	// Journaled is each rank's unapplied write-back ops (indexed by
	// rank; nil when no client runs in write-back mode).
	Journaled []int64
	// Replicas is the warm-standby replication manager; nil skips the
	// replica invariant family.
	Replicas *replica.Manager
	// LeaseWriteRevoked lists the subtree keys whose read leases were
	// write-invalidated during this tick; the lease family checks each
	// holds zero live leases by tick end.
	LeaseWriteRevoked []namespace.FragKey
	// Tenancy is the per-tenant admission manager; nil skips the tenant
	// invariant family.
	Tenancy *tenant.Manager
	// TenantAdmitted is the cluster's count of ops bucket-admitted this
	// tick, summed across tenants as the engine charged them.
	TenantAdmitted int64
	// TenantServed is the per-tenant count of ops actually served this
	// tick (indexed by tenant).
	TenantServed []int64
}

// Check runs every invariant over the state and returns how many new
// violations this pass found. Nil-safe (a nil auditor checks nothing).
func (a *Auditor) Check(s State) int {
	if a == nil {
		return 0
	}
	before := len(a.violations)
	a.passes++
	a.checkPartition(s)
	a.checkResolver(s)
	a.checkVisited(s)
	a.checkFrozen(s)
	a.checkMigratorCounters(s)
	a.checkClients(s)
	a.checkHeat(s)
	a.checkOps(s)
	a.checkLiveness(s)
	a.checkLifecycle(s)
	a.checkReplicas(s)
	a.checkLeases(s)
	a.checkTenants(s)
	return len(a.violations) - before
}

// checkTenants validates the tenant-QoS invariants at tick end. Bucket
// ("tenant/bucket"): every token bucket holds between zero and its
// burst — refill clamps at the burst and Take never overdraws.
// Conservation ("tenant/conservation"): the per-tenant admission
// counters sum to the cluster's total bucket-admitted ops for the tick
// — no op is admitted without being charged to exactly one tenant.
// Served ("tenant/served"): no tenant is served more ops in a tick than
// its bucket admitted — serving past the bucket would mean the rank
// pools bypassed admission control.
func (a *Auditor) checkTenants(s State) {
	tn := s.Tenancy
	if tn == nil {
		return
	}
	var admitted int64
	for t := 0; t < tn.N(); t++ {
		tok, burst := tn.Tokens(t), tn.BurstOf(t)
		if tok < 0 || tok > burst+1e-9 {
			a.failf(s.Tick, "tenant/bucket",
				"tenant %d: tokens %g outside [0, burst %g]", t, tok, burst)
		}
		adm := tn.AdmittedTick(t)
		if adm < 0 {
			a.failf(s.Tick, "tenant/conservation",
				"tenant %d: negative admitted count %d", t, adm)
		}
		admitted += adm
		if t < len(s.TenantServed) && s.TenantServed[t] > adm {
			a.failf(s.Tick, "tenant/served",
				"tenant %d: served %d ops this tick, bucket admitted only %d",
				t, s.TenantServed[t], adm)
		}
	}
	if admitted != s.TenantAdmitted {
		a.failf(s.Tick, "tenant/conservation",
			"per-tenant admitted ops sum %d != cluster admitted total %d",
			admitted, s.TenantAdmitted)
	}
}

// checkLeases validates the read-lease invariants at tick end. Term
// ("lease/term"): no lease outlives its expiry — the expiry pump drops
// Expires <= tick before the audit runs, so a surviving stale lease
// means the pump was skipped. Holder ("lease/holder"): every lease is
// held by a synced standby of its group — never the primary, never a
// rank that is down or draining (leases die with DropRank, and standbys
// were already confined to Active ranks). Invalidation
// ("lease/invalidate"): a subtree whose leases were write-revoked this
// tick holds zero live leases — the epoch-close grant pass must not
// have re-granted them in the same tick. Count ("lease/count"): the
// manager's running live-lease count, which the engine consults before
// routing any read, equals the leases its groups actually hold.
func (a *Auditor) checkLeases(s State) {
	if s.Replicas == nil || s.Replicas.Policy().LeaseTicks <= 0 {
		return
	}
	live := 0
	s.Replicas.ForEachGroup(func(g *replica.Group) {
		live += len(g.Leases)
		for _, l := range g.Leases {
			if l.Expires <= s.Tick {
				a.failf(s.Tick, "lease/term",
					"group %v/%s lease on rank %d expired at tick %d, still live",
					g.Key.Dir, g.Key.Frag, l.Rank, l.Expires)
			}
			if l.Rank == g.Primary {
				a.failf(s.Tick, "lease/holder",
					"group %v/%s lease held by its own primary %d",
					g.Key.Dir, g.Key.Frag, l.Rank)
			}
			synced := false
			for _, sb := range g.Standbys {
				if sb.Rank == l.Rank && !sb.Syncing {
					synced = true
					break
				}
			}
			if !synced {
				a.failf(s.Tick, "lease/holder",
					"group %v/%s lease on rank %d, which is not a synced standby",
					g.Key.Dir, g.Key.Frag, l.Rank)
			}
			if int(l.Rank) < 0 || int(l.Rank) >= len(s.Servers) ||
				!s.Servers[l.Rank].Up() || s.Servers[l.Rank].Draining() {
				a.failf(s.Tick, "lease/holder",
					"group %v/%s lease on dead or draining rank %d",
					g.Key.Dir, g.Key.Frag, l.Rank)
			}
		}
	})
	if n := s.Replicas.LiveLeases(); n != live {
		a.failf(s.Tick, "lease/count",
			"manager counts %d live leases, its groups hold %d", n, live)
	}
	for _, k := range s.LeaseWriteRevoked {
		if n := len(s.Replicas.Leases(k)); n > 0 {
			a.failf(s.Tick, "lease/invalidate",
				"write-invalidated subtree %v/%s still holds %d live leases",
				k.Dir, k.Frag, n)
		}
	}
}

// checkReplicas validates the warm-standby replication invariants.
// R-conservation ("replica/conservation"): every partition entry has
// exactly one group led by its authoritative rank, group size never
// exceeds R, standbys are distinct live ranks different from the
// primary. Journal divergence ("replica/divergence"): a synced
// standby's applied sequence never passes the journal head and lags it
// by at most one record (the ship loop applies the outstanding tail
// before appending), and its applied heat equals the journal's prefix
// sum at its applied sequence — the state a promotion would install.
func (a *Auditor) checkReplicas(s State) {
	if s.Replicas == nil {
		return
	}
	pol := s.Replicas.Policy()
	entries := s.Partition.Entries()
	auth := make(map[namespace.FragKey]namespace.MDSID, len(entries))
	for _, e := range entries {
		auth[e.Key] = e.Auth
	}
	groups := 0
	s.Replicas.ForEachGroup(func(g *replica.Group) {
		groups++
		want, ok := auth[g.Key]
		switch {
		case !ok:
			a.failf(s.Tick, "replica/conservation",
				"group %v/%s has no partition entry", g.Key.Dir, g.Key.Frag)
		case want != g.Primary:
			a.failf(s.Tick, "replica/conservation",
				"group %v/%s primary %d != authoritative rank %d",
				g.Key.Dir, g.Key.Frag, g.Primary, want)
		}
		if 1+len(g.Standbys) > pol.R {
			a.failf(s.Tick, "replica/conservation",
				"group %v/%s has %d members, R=%d",
				g.Key.Dir, g.Key.Frag, 1+len(g.Standbys), pol.R)
		}
		seen := make(map[namespace.MDSID]bool, len(g.Standbys))
		for _, sb := range g.Standbys {
			if sb.Rank == g.Primary {
				a.failf(s.Tick, "replica/conservation",
					"group %v/%s standby %d is its own primary",
					g.Key.Dir, g.Key.Frag, sb.Rank)
			}
			if seen[sb.Rank] {
				a.failf(s.Tick, "replica/conservation",
					"group %v/%s has duplicate standby %d",
					g.Key.Dir, g.Key.Frag, sb.Rank)
			}
			seen[sb.Rank] = true
			if int(sb.Rank) < 0 || int(sb.Rank) >= len(s.Servers) ||
				!s.Servers[sb.Rank].Up() || s.Servers[sb.Rank].Draining() {
				// Active ranks only: Up() spans Draining, and a draining
				// rank is leaving — placement, resync, and promotion all
				// gate on the importable predicate, so a standby parked
				// on one is a placement bug, not a transient.
				a.failf(s.Tick, "replica/conservation",
					"group %v/%s standby on dead or draining rank %d",
					g.Key.Dir, g.Key.Frag, sb.Rank)
			}
			if sb.Syncing {
				continue
			}
			if sb.Applied > g.Appended() {
				a.failf(s.Tick, "replica/divergence",
					"group %v/%s standby %d applied %d past journal head %d",
					g.Key.Dir, g.Key.Frag, sb.Rank, sb.Applied, g.Appended())
				continue
			}
			if lag := g.Appended() - sb.Applied; lag > 1 {
				a.failf(s.Tick, "replica/divergence",
					"group %v/%s standby %d lags %d records (bound 1)",
					g.Key.Dir, g.Key.Frag, sb.Rank, lag)
			}
			heat, ok := g.PrefixAt(sb.Applied)
			if !ok {
				a.failf(s.Tick, "replica/divergence",
					"group %v/%s journal truncated past standby %d's applied seq %d",
					g.Key.Dir, g.Key.Frag, sb.Rank, sb.Applied)
				continue
			}
			if d := sb.Heat - heat; d > 1e-6 || d < -1e-6 {
				a.failf(s.Tick, "replica/divergence",
					"group %v/%s standby %d applied heat %g != journal prefix %g",
					g.Key.Dir, g.Key.Frag, sb.Rank, sb.Heat, heat)
			}
			if sb.Heat < -1e-9 {
				a.failf(s.Tick, "replica/divergence",
					"group %v/%s standby %d has negative heat %g",
					g.Key.Dir, g.Key.Frag, sb.Rank, sb.Heat)
			}
		}
	})
	if groups != len(entries) {
		a.failf(s.Tick, "replica/conservation",
			"%d replication groups for %d partition entries", groups, len(entries))
	}
}

// checkLifecycle validates the elastic drain/decommission invariants:
// a decommissioned rank has fully left the metadata plane — it governs
// zero subtree entries and is no endpoint of any export, queued or
// active — and no active export imports into a draining rank. A
// *queued* task targeting a draining (or freshly decommissioned) rank
// is a legal transient: it was planned before the drain started and
// the activation gate drops it with reason "importer_excluded" before
// it can move anything.
func (a *Auditor) checkLifecycle(s State) {
	anyRetired := false
	for _, srv := range s.Servers {
		if srv.State() == mds.RankDecommissioned || srv.Draining() {
			anyRetired = true
			break
		}
	}
	if !anyRetired {
		return
	}
	decom := func(id namespace.MDSID) bool {
		return int(id) >= 0 && int(id) < len(s.Servers) &&
			s.Servers[id].State() == mds.RankDecommissioned
	}
	draining := func(id namespace.MDSID) bool {
		return int(id) >= 0 && int(id) < len(s.Servers) && s.Servers[id].Draining()
	}
	for _, e := range s.Partition.Entries() {
		if decom(e.Auth) {
			a.failf(s.Tick, "lifecycle/decommissioned",
				"entry %v/%s still owned by decommissioned rank %d",
				e.Key.Dir, e.Key.Frag, e.Auth)
		}
	}
	s.Migrator.ForEachActive(func(t *mds.ExportTask) {
		if decom(t.From) || decom(t.To) {
			a.failf(s.Tick, "lifecycle/decommissioned",
				"active export %v/%s has decommissioned endpoint (from %d, to %d)",
				t.Key.Dir, t.Key.Frag, t.From, t.To)
		}
		if draining(t.To) {
			a.failf(s.Tick, "lifecycle/draining",
				"active export %v/%s imports into draining rank %d",
				t.Key.Dir, t.Key.Frag, t.To)
		}
	})
	s.Migrator.ForEachQueued(func(t *mds.ExportTask) {
		if decom(t.From) {
			a.failf(s.Tick, "lifecycle/decommissioned",
				"queued export %v/%s from decommissioned rank %d",
				t.Key.Dir, t.Key.Frag, t.From)
		}
	})
}

// checkPartition validates partition structure (per-directory fragment
// entries sorted and disjoint, rooted at live directories), authority
// liveness (every entry's rank is in range and up or orphan-tracked),
// and governed-inode conservation (per-entry counts are non-negative
// and sum to the tree's total).
func (a *Auditor) checkPartition(s State) {
	for _, v := range CheckPartition(s.Tree, s.Partition) {
		v.Tick = s.Tick
		a.record(v)
	}
	orphaned := s.Orphaned
	if orphaned == nil {
		orphaned = func(namespace.MDSID) bool { return false }
	}
	for _, e := range s.Partition.Entries() {
		if int(e.Auth) < 0 || int(e.Auth) >= len(s.Servers) {
			a.failf(s.Tick, "partition/authority",
				"entry %v/%s authority %d out of range [0,%d)",
				e.Key.Dir, e.Key.Frag, e.Auth, len(s.Servers))
			continue
		}
		if !s.Servers[e.Auth].Up() && !orphaned(e.Auth) {
			a.failf(s.Tick, "partition/authority",
				"entry %v/%s owned by rank %d, which is down and not orphan-tracked",
				e.Key.Dir, e.Key.Frag, e.Auth)
		}
	}
}

// checkResolver cross-checks a deterministic sample of inodes between
// the version-cached resolver and a fresh GoverningEntry walk. Reading
// the resolver fills its cache, which is semantically invisible (the
// resolve-cache differential test is the proof), so the audit stays
// observably read-only.
func (a *Auditor) checkResolver(s State) {
	if s.Resolver == nil {
		return
	}
	maxIno := s.Tree.MaxIno()
	if maxIno < namespace.RootIno {
		return
	}
	n := int64(maxIno-namespace.RootIno) + 1
	stride := n / resolveSamples
	if stride < 1 {
		stride = 1
	}
	// Rotate the sample window with the pass counter so successive
	// passes cover different inodes — deterministically, without RNG.
	offset := a.passes % stride
	for i := int64(namespace.RootIno) + offset; i <= int64(maxIno); i += stride {
		in := s.Tree.Get(namespace.Ino(i))
		if in == nil {
			continue
		}
		got := s.Resolver.Entry(in)
		want := s.Partition.GoverningEntry(in)
		if got != want {
			a.failf(s.Tick, "resolver/agreement",
				"ino %d: cached entry %v/%s@%d, fresh walk %v/%s@%d",
				i, got.Key.Dir, got.Key.Frag, got.Auth,
				want.Key.Dir, want.Key.Frag, want.Auth)
		}
	}
}

// checkVisited validates the root's first-visit counters against its
// subtree sizes ("namespace/visited"): no more files visited than exist,
// no more inodes than exist. Each inode's first visit is marked once,
// on a linked inode, so an excess is a visit counted twice or a visit
// to an inode the tree never linked. The scan signal reads the
// difference (Inode.UnvisitedBelow), which therefore needs no clamp.
func (a *Auditor) checkVisited(s State) {
	root := s.Tree.Root()
	if vf, f := root.VisitedFiles(), root.SubtreeFiles(); vf > f {
		a.failf(s.Tick, "namespace/visited", "root: %d files visited of %d", vf, f)
	}
	if vd, n := root.VisitedDesc(), root.SubtreeInodes(); vd > n {
		a.failf(s.Tick, "namespace/visited", "root: %d inodes visited of %d", vd, n)
	}
}

// checkFrozen validates that the migrator's frozen set is exactly the
// set of active tasks inside their commit windows, and that no two
// active tasks target the same subtree entry.
func (a *Auditor) checkFrozen(s State) {
	for _, v := range CheckMigrator(s.Migrator, s.Tick) {
		v.Tick = s.Tick
		a.record(v)
	}
}

// checkMigratorCounters reconciles the lifecycle counters: every
// submitted task is queued, active, completed, dropped, or aborted.
func (a *Auditor) checkMigratorCounters(s State) {
	m := s.Migrator
	sum := int64(m.QueuedTasks()) + int64(m.ActiveTasks()) +
		m.CompletedTasks() + m.DroppedTasks() + m.AbortedTasks()
	if m.SubmittedTasks() != sum {
		a.failf(s.Tick, "migrator/counters",
			"submitted %d != queued %d + active %d + completed %d + dropped %d + aborted %d",
			m.SubmittedTasks(), m.QueuedTasks(), m.ActiveTasks(),
			m.CompletedTasks(), m.DroppedTasks(), m.AbortedTasks())
	}
}

// checkClients validates per-client bounds: non-negative data debt,
// backoff within the exponential cap, retry deadlines inside the
// reachable window, and the credit accumulator within one tick's rate.
func (a *Auditor) checkClients(s State) {
	for _, cl := range s.Clients {
		if cl.Debt() < 0 {
			a.failf(s.Tick, "client/bounds", "client %d: negative debt %d", cl.ID, cl.Debt())
		}
		if cl.Backoff() < 0 || cl.Backoff() > client.MaxBackoffTicks {
			a.failf(s.Tick, "client/bounds",
				"client %d: backoff %d outside [0,%d]", cl.ID, cl.Backoff(), client.MaxBackoffTicks)
		}
		if cl.RetryAt() > s.Tick+client.MaxBackoffTicks {
			a.failf(s.Tick, "client/bounds",
				"client %d: retry-at %d beyond tick %d + max backoff %d",
				cl.ID, cl.RetryAt(), s.Tick, client.MaxBackoffTicks)
		}
		maxCredit := cl.Rate()
		if maxCredit < 1 {
			maxCredit = 1
		}
		if cr := cl.Credit(); cr < 0 || cr > maxCredit {
			a.failf(s.Tick, "client/bounds",
				"client %d: credit %g outside [0,%g]", cl.ID, cr, maxCredit)
		}
		// A backing-off client must name the rank that drove it there
		// (RecoverMDS clears backoffs by matching rank, so a dangling or
		// out-of-range rank would strand the client until it times out).
		if br := cl.BackoffRank(); cl.Backoff() > 0 &&
			(br < 0 || int(br) >= len(s.Servers)) {
			a.failf(s.Tick, "client/bounds",
				"client %d: backing off against invalid rank %d", cl.ID, br)
		}
	}
}

// checkHeat validates that no decayed popularity counter reads
// negative on any server (heat only ever accumulates accesses and
// decays multiplicatively toward zero).
func (a *Auditor) checkHeat(s State) {
	for _, srv := range s.Servers {
		if h := srv.MinHeat(); h < 0 {
			a.failf(s.Tick, "server/heat", "rank %d: negative heat %g", srv.ID, h)
		}
	}
}

// checkOps validates ops conservation. Per client: every op drawn from
// the stream is either completed or still pending. Across the cluster:
// every completed client op was served by exactly one MDS, except
// creates that raced into existence (accounted by RacedCreates).
// Forwarding units charged at relay ranks never exceed the cluster's
// forwarded-hop count (a saturated relay is counted as a hop but
// cannot be charged). Write-back mode ("ops/journal"): each client's
// in-flight count stays within its pending queue, the cluster's
// in-flight total equals the ops the rank journals hold (Journaled),
// and a down rank's journal is empty.
func (a *Auditor) checkOps(s State) {
	var done, inflight int64
	for _, cl := range s.Clients {
		issued, pending := cl.Issued(), cl.PendingOps()
		if issued != cl.OpsDone()+pending {
			a.failf(s.Tick, "ops/conservation",
				"client %d: issued %d != done %d + pending %d",
				cl.ID, issued, cl.OpsDone(), pending)
		}
		if fl := cl.Inflight(); fl < 0 || fl > pending {
			// Write-back mode: journaled ops are a prefix of the
			// pending queue, never more than it holds.
			a.failf(s.Tick, "ops/conservation",
				"client %d: inflight %d outside [0, pending %d]",
				cl.ID, fl, pending)
		} else {
			inflight += fl
		}
		done += cl.OpsDone()
	}
	var served, fwd, journaled int64
	for i, srv := range s.Servers {
		served += srv.OpsTotal()
		fwd += srv.Forwards()
		var jops int64
		if i < len(s.Journaled) {
			jops = s.Journaled[i]
		}
		journaled += jops
		if !srv.Up() && jops != 0 {
			// A crash drops the rank's unapplied journal (the batches
			// re-queue client-side), and nothing may flush to it while
			// it is down.
			a.failf(s.Tick, "ops/journal",
				"rank %d: down with %d journaled ops", srv.ID, jops)
		}
	}
	if inflight != journaled {
		a.failf(s.Tick, "ops/journal",
			"client in-flight ops %d != journaled ops %d", inflight, journaled)
	}
	if done != served+s.RacedCreates {
		a.failf(s.Tick, "ops/conservation",
			"client ops done %d != server ops served %d + raced creates %d",
			done, served, s.RacedCreates)
	}
	if fwd > s.Forwards {
		a.failf(s.Tick, "ops/forwards",
			"forwarding units charged at ranks %d exceed cluster forwards %d", fwd, s.Forwards)
	}
}

// checkLiveness validates progress ("ops/liveness"): while ops are
// outstanding and some rank is up, an op is served at least every
// livenessTicks ticks. Progress is sampled at passes, so the stall
// measured never exceeds the real one; a stall is recorded once per
// window.
func (a *Auditor) checkLiveness(s State) {
	var done, pending int64
	for _, cl := range s.Clients {
		done += cl.OpsDone()
		pending += cl.PendingOps()
	}
	up := false
	for _, srv := range s.Servers {
		up = up || srv.Up()
	}
	if done != a.done || pending == 0 || !up {
		a.done, a.progress = done, s.Tick
		return
	}
	if s.Tick-a.progress >= livenessTicks {
		a.failf(s.Tick, "ops/liveness",
			"%d ops outstanding, none served since tick %d", pending, a.progress)
		a.progress = s.Tick
	}
}

// fragStart mirrors the partition's ordering key: the first 32-bit hash
// a fragment covers.
func fragStart(f namespace.Frag) uint32 {
	if f.Bits == 0 {
		return 0
	}
	return f.Value << (32 - uint32(f.Bits))
}

// fragSpan returns the fragment's hash range as [start, end] in uint64
// (end inclusive; uint64 avoids overflow for the whole fragment).
func fragSpan(f namespace.Frag) (uint64, uint64) {
	start := uint64(fragStart(f))
	width := uint64(1) << (32 - uint64(f.Bits))
	return start, start + width - 1
}

// CheckPartition validates partition structure and inode conservation
// against the tree, independent of any cluster: every entry is rooted
// at a live directory; the fragment entries of each directory are
// disjoint; per-entry governed-inode counts are non-negative and sum
// to the tree's total. It is the shared oracle of FuzzPartitionOps and
// FuzzFragSplitMerge. Violations carry no tick.
func CheckPartition(tree *namespace.Tree, part *namespace.Partition) []Violation {
	var out []Violation
	fail := func(check, format string, args ...any) {
		out = append(out, Violation{Check: check, Msg: fmt.Sprintf(format, args...)})
	}

	entries := part.Entries()
	if len(entries) != part.NumEntries() {
		fail("partition/structure", "NumEntries %d != len(Entries()) %d",
			part.NumEntries(), len(entries))
	}
	rootSeen := false
	// Entries() sorts by (dir, bits, value); regroup by directory and
	// verify each group's fragments are pairwise disjoint by span.
	byDir := make(map[namespace.Ino][]namespace.Entry)
	for _, e := range entries {
		byDir[e.Key.Dir] = append(byDir[e.Key.Dir], e)
		if e.Key.Dir == namespace.RootIno {
			rootSeen = true
		}
		dir := tree.Get(e.Key.Dir)
		if dir == nil {
			fail("partition/structure", "entry %v/%s rooted at missing inode", e.Key.Dir, e.Key.Frag)
			continue
		}
		if !dir.IsDir {
			fail("partition/structure", "entry %v/%s rooted at a file", e.Key.Dir, e.Key.Frag)
		}
	}
	if !rootSeen {
		fail("partition/structure", "no entry rooted at the root directory")
	}
	for dir, es := range byDir {
		for i := 0; i < len(es); i++ {
			si, ei := fragSpan(es[i].Key.Frag)
			for j := i + 1; j < len(es); j++ {
				sj, ej := fragSpan(es[j].Key.Frag)
				if si <= ej && sj <= ei {
					fail("partition/structure",
						"dir %v: fragments %s and %s overlap",
						dir, es[i].Key.Frag, es[j].Key.Frag)
				}
			}
		}
	}

	sizes := part.SubtreeSizes()
	sum := 0
	for key, n := range sizes {
		if n < 0 {
			fail("partition/inodes", "entry %v/%s governs negative inode count %d",
				key.Dir, key.Frag, n)
		}
		sum += n
	}
	if sum != tree.NumInodes() {
		fail("partition/inodes", "governed inodes sum %d != tree total %d",
			sum, tree.NumInodes())
	}
	return out
}

// CheckMigrator validates the migration engine's freeze-window
// invariant at the given tick: the frozen set is exactly the active
// tasks inside their commit windows, and no subtree entry is targeted
// by two active tasks. It is the shared oracle of
// FuzzMigratorLifecycle. Violations carry no tick (the caller stamps).
func CheckMigrator(m *mds.Migrator, tick int64) []Violation {
	var out []Violation
	fail := func(check, format string, args ...any) {
		out = append(out, Violation{Check: check, Msg: fmt.Sprintf(format, args...)})
	}
	want := make(map[namespace.FragKey]bool)
	m.ForEachActive(func(t *mds.ExportTask) {
		if t.State != mds.TaskActive {
			fail("migrator/frozen", "task %v/%s in active set with state %d",
				t.Key.Dir, t.Key.Frag, t.State)
		}
		if want[t.Key] {
			fail("migrator/frozen", "two active tasks target entry %v/%s",
				t.Key.Dir, t.Key.Frag)
		}
		if t.DoneTick-tick <= mds.FreezeTicks {
			want[t.Key] = true
		}
	})
	frozen := m.FrozenKeys()
	for _, k := range frozen {
		if !want[k] {
			fail("migrator/frozen", "entry %v/%s frozen without an active commit window",
				k.Dir, k.Frag)
		}
		delete(want, k)
	}
	for k := range want {
		fail("migrator/frozen", "active task %v/%s inside its commit window but not frozen",
			k.Dir, k.Frag)
	}
	return out
}
