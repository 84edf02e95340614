// Package tenant implements the multi-tenant QoS layer: tenant
// identity, per-tenant token-bucket admission, and the SLO-debt signal
// the elastic controller scales on.
//
// The cluster owns at most one Manager (Config.Tenancy; nil disables
// the subsystem exactly like obs/audit/replica). All mutation happens
// at fixed points of the tick loop — the budget-admission phase of the
// engine, BeginTick, EndEpoch.
//
// Semantics: every tenant owns a token bucket refilled at Rate tokens
// per tick up to Burst. Admission charges a run of ops against the
// owner's bucket *before* the rank's service pool; a run the bucket
// cannot cover is cut at the granted prefix and the client takes the
// ordinary stall/backoff path. Bucket shortfalls are "throttles" (the
// tenant asked for more than its quota — intended behavior, never an
// SLO signal); rank-pool shortfalls on bucket-admitted work are
// "stalls" (the cluster is too small for admitted demand — the debt
// signal elastic scale-up triggers on).
package tenant

import (
	"fmt"
	"math"
)

// debtThreshold is the per-epoch stall fraction at or above which a
// tenant counts as SLO-indebted for elastic scale-up. Debt is
// stalls/(stalls+admitted) over the closed epoch, measured on
// bucket-admitted work only.
const debtThreshold float64 = 0.5

// Policy configures per-tenant token-bucket admission. Every tenant
// gets the same bucket, whatever its size.
type Policy struct {
	// Rate is the bucket refill in ops per tick. Must be positive.
	Rate float64

	// Burst is the bucket capacity in ops. Buckets start full. Must be
	// at least Rate (a bucket smaller than one refill would leak
	// tokens every tick).
	Burst float64
}

// DefaultPolicy returns a permissive policy: generous enough that a
// typical per-client rate never throttles, so attaching it to an
// uncontended run is behavior-neutral.
func DefaultPolicy() Policy {
	return Policy{Rate: 4000, Burst: 8000}
}

// Validate checks the policy for internal consistency.
func (p Policy) Validate() error {
	if p.Rate <= 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
		return fmt.Errorf("tenant: rate must be positive, got %v", p.Rate)
	}
	if p.Burst < p.Rate || math.IsNaN(p.Burst) || math.IsInf(p.Burst, 0) {
		return fmt.Errorf("tenant: burst must be >= rate, got burst=%v rate=%v", p.Burst, p.Rate)
	}
	return nil
}

// bucket is one tenant's admission and accounting state.
type bucket struct {
	rate   float64 // refill per tick
	burst  float64 // capacity; tokens start here
	tokens float64

	clients int // clients bound to this tenant

	// Per-tick counters, reset by BeginTick. The auditor checks
	// admittedTick against the engine's independent total and served
	// counts.
	admittedTick  int64
	throttledTick int64

	// Per-epoch counters, reset by EndEpoch.
	admittedEpoch int64
	stalledEpoch  int64

	// Cumulative counters for metrics and summaries.
	admitted  int64
	throttled int64
	stalled   int64

	debt             float64 // stall fraction of the last closed epoch
	throttledInEpoch bool    // bucket ran dry this (open) epoch
	throttledLast    bool    // bucket ran dry in the last closed epoch
}

// Manager is the cluster-wide tenant state: one token bucket per
// tenant plus the admission/throttle/stall accounting. Not safe for
// concurrent use.
type Manager struct {
	pol     Policy
	buckets []bucket
}

// NewManager validates the policy and builds an unbound manager; the
// cluster binds tenant sizes with Bind once the workload's client
// partition is known.
func NewManager(pol Policy) (*Manager, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Manager{pol: pol}, nil
}

// MustManager is NewManager for static configuration; it panics on an
// invalid policy.
func MustManager(pol Policy) *Manager {
	m, err := NewManager(pol)
	if err != nil {
		panic(err)
	}
	return m
}

// Policy returns the manager's validated policy.
func (m *Manager) Policy() Policy { return m.pol }

// Bind sizes the manager for the workload's tenant partition:
// clientsPerTenant[t] clients belong to tenant t. Buckets start full.
// Binding replaces any previous binding (the manager must not be
// shared between clusters).
func (m *Manager) Bind(clientsPerTenant []int) error {
	if len(clientsPerTenant) == 0 {
		return fmt.Errorf("tenant: bind needs at least one tenant")
	}
	m.buckets = make([]bucket, len(clientsPerTenant))
	for t, n := range clientsPerTenant {
		if n <= 0 {
			return fmt.Errorf("tenant: tenant %d has %d clients; every tenant needs at least one", t, n)
		}
		m.buckets[t] = bucket{rate: m.pol.Rate, burst: m.pol.Burst, tokens: m.pol.Burst, clients: n}
	}
	return nil
}

// N returns the number of bound tenants (0 before Bind).
func (m *Manager) N() int { return len(m.buckets) }

// Clients returns tenant t's bound client count.
func (m *Manager) Clients(t int) int { return m.buckets[t].clients }

// BeginTick refills every bucket and resets the per-tick counters.
// Called once per tick, before any admission.
func (m *Manager) BeginTick() {
	for t := range m.buckets {
		b := &m.buckets[t]
		b.tokens += b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.admittedTick = 0
		b.throttledTick = 0
	}
}

// Take grants up to n ops from tenant t's bucket and returns the
// grant. Fractional tokens stay in the bucket: a grant is always a
// whole number of ops.
func (m *Manager) Take(t, n int) int {
	if n <= 0 {
		return 0
	}
	b := &m.buckets[t]
	grant := n
	if avail := int(b.tokens); avail < grant {
		grant = avail
	}
	b.tokens -= float64(grant)
	return grant
}

// Refund returns n ops' worth of tokens to tenant t's bucket — the
// admission path hands back the part of a bucket grant the rank pool
// could not cover, so a pool stall is never double-charged as a
// quota spend.
func (m *Manager) Refund(t, n int) {
	if n <= 0 {
		return
	}
	b := &m.buckets[t]
	b.tokens += float64(n)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// NoteAdmitted records n ops admitted for tenant t this tick (bucket
// and pool both covered them).
func (m *Manager) NoteAdmitted(t, n int) {
	if n <= 0 {
		return
	}
	b := &m.buckets[t]
	b.admittedTick += int64(n)
	b.admittedEpoch += int64(n)
	b.admitted += int64(n)
}

// NoteThrottled records n ops denied by tenant t's bucket this tick —
// the quota doing its job, never an SLO-debt signal.
func (m *Manager) NoteThrottled(t, n int) {
	if n <= 0 {
		return
	}
	b := &m.buckets[t]
	b.throttledTick += int64(n)
	b.throttled += int64(n)
	b.throttledInEpoch = true
}

// NoteStalled records n bucket-admitted ops the rank pool could not
// serve — the cluster failing an in-quota tenant, the signal SLO debt
// is computed from.
func (m *Manager) NoteStalled(t, n int) {
	if n <= 0 {
		return
	}
	b := &m.buckets[t]
	b.stalledEpoch += int64(n)
	b.stalled += int64(n)
}

// EndEpoch closes the epoch: per-tenant debt becomes the epoch's
// stall fraction on bucket-admitted work, the throttled-recently
// latch moves, and the epoch counters reset.
func (m *Manager) EndEpoch() {
	for t := range m.buckets {
		b := &m.buckets[t]
		if tot := b.stalledEpoch + b.admittedEpoch; tot > 0 {
			b.debt = float64(b.stalledEpoch) / float64(tot)
		} else {
			b.debt = 0
		}
		b.throttledLast = b.throttledInEpoch
		b.throttledInEpoch = false
		b.admittedEpoch = 0
		b.stalledEpoch = 0
	}
}

// MaxDebt returns the highest per-tenant SLO debt from the last closed
// epoch, but only when it reaches debtThreshold — the elastic snapshot
// signal. Returns 0 when every tenant is below the threshold.
func (m *Manager) MaxDebt() float64 {
	max := 0.0
	for t := range m.buckets {
		if d := m.buckets[t].debt; d > max {
			max = d
		}
	}
	if max < debtThreshold {
		return 0
	}
	return max
}

// ThrottledLastEpoch reports whether tenant t's bucket ran dry during
// the last closed epoch — the fairness signal the balancer consults
// before migrating a subtree that is hot purely from over-quota load.
func (m *Manager) ThrottledLastEpoch(t int) bool { return m.buckets[t].throttledLast }

// Tokens returns tenant t's current bucket level (audited to stay
// within [0, Burst]).
func (m *Manager) Tokens(t int) float64 { return m.buckets[t].tokens }

// BurstOf returns tenant t's bucket capacity.
func (m *Manager) BurstOf(t int) float64 { return m.buckets[t].burst }

// AdmittedTick returns the ops admitted for tenant t in the current
// tick — the auditor's conservation operand.
func (m *Manager) AdmittedTick(t int) int64 { return m.buckets[t].admittedTick }

// ThrottledTick returns the ops bucket-denied for tenant t this tick.
func (m *Manager) ThrottledTick(t int) int64 { return m.buckets[t].throttledTick }

// Admitted returns tenant t's cumulative admitted ops.
func (m *Manager) Admitted(t int) int64 { return m.buckets[t].admitted }

// Throttled returns tenant t's cumulative bucket-denied ops.
func (m *Manager) Throttled(t int) int64 { return m.buckets[t].throttled }

// Stalled returns tenant t's cumulative pool-stalled admitted ops.
func (m *Manager) Stalled(t int) int64 { return m.buckets[t].stalled }
