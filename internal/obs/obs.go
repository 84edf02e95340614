// Package obs is the run-observability layer: a structured event bus
// the simulator's components emit into at the points the paper's
// figures are drawn from — epoch snapshots with the IF-model inputs,
// per-rank load/queue/heat timelines, the full migration lifecycle
// (planned, activated, frozen, completed, dropped, aborted), fault
// events, and client backoff transitions. Sinks are pluggable: a JSONL
// writer for offline analysis, an in-memory ring for tests, and a
// per-type summary counter.
//
// The bus is zero-cost when disabled: every emit site guards with
// Bus.Enabled, which is a nil-receiver-safe check, so a simulation
// built without a bus pays one predictable branch per emit point and
// allocates nothing. Tracing must never perturb the run — the bus
// never touches the RNG and emits only from deterministic points, so
// the same seed produces byte-identical metrics with tracing on or
// off.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Type names one event kind. The set below is the schema contract for
// the JSONL output (see EXPERIMENTS.md).
type Type string

// Event types.
const (
	// EvEpoch is the epoch-boundary snapshot: the IF evaluation the
	// cluster records (fields: epoch, if, cov, live).
	EvEpoch Type = "epoch"
	// EvRank is the per-rank epoch snapshot (fields: rank, load, ops,
	// stalls, heat, queued, active, up).
	EvRank Type = "rank"
	// EvTrigger is a balancer's per-epoch trigger decision with its
	// inputs (fields: balancer, if, cov, norm_cov, u, threshold,
	// fired, live).
	EvTrigger Type = "trigger"
	// EvPlan is one Algorithm-1 exporter->importer pair (fields: from,
	// to, amount).
	EvPlan Type = "plan"
	// EvSelect is one subtree pick by the selector (fields: from, to,
	// dir, frag, load, entry).
	EvSelect Type = "select"

	// Migration lifecycle events (fields: dir, frag, from, to, plus
	// inodes on activation/completion and reason on drops).
	EvMigrationPlanned   Type = "migration_planned"
	EvMigrationActivated Type = "migration_activated"
	EvMigrationFrozen    Type = "migration_frozen"
	EvMigrationCompleted Type = "migration_completed"
	EvMigrationDropped   Type = "migration_dropped"
	EvMigrationAborted   Type = "migration_aborted"

	// Fault events.
	EvCrash    Type = "mds_crash"       // fields: rank, live, aborted
	EvRecover  Type = "mds_recover"     // fields: rank
	EvTakeover Type = "orphan_takeover" // fields: rank, entries, crash_tick, waited

	// Client backoff transitions.
	EvBackoffEnter Type = "backoff_enter" // fields: client, backoff, retry_at
	EvBackoffExit  Type = "backoff_exit"  // fields: client, reason

	// Elastic autoscaler events.
	// EvScaleDecision is a non-None controller decision (fields:
	// action, delta, reason, util, if, active, draining).
	EvScaleDecision Type = "scale_decision"
	// EvDrainStart marks a rank entering Draining (fields: rank,
	// entries, unpinned).
	EvDrainStart Type = "drain_start"
	// EvDrainComplete marks a drained rank's decommission (fields:
	// rank, entries, waited).
	EvDrainComplete Type = "drain_complete"

	// Replication events.
	// EvReplicaPromote marks one warm standby promotion (fields: dir,
	// frag, from, to, heat, lag, waited).
	EvReplicaPromote Type = "replica_promote"
	// EvJournalLag is the epoch-close replication snapshot (fields:
	// groups, max_lag, syncing, records).
	EvJournalLag Type = "journal_lag"
	// EvRereplicate marks one completed background re-replication sync
	// (fields: dir, frag, rank, inodes).
	EvRereplicate Type = "rereplicate"

	// Write-back batching events.
	// EvBatchFlush marks a client flushing a buffered run into a rank's
	// group-commit journal (fields: client, rank, n, age, depth).
	EvBatchFlush Type = "batch_flush"
	// EvBatchCommit marks a journaled batch (or admitted prefix of one)
	// applied by the serve phase (fields: rank, client, n, groups).
	EvBatchCommit Type = "batch_commit"
	// EvBatchRequeue marks a batch dropped with its rank's unapplied
	// journal at crash time; its ops re-queue client-side exactly once
	// (fields: rank, client, n).
	EvBatchRequeue Type = "batch_requeue"

	// Read-lease events.
	// EvLeaseGrant marks read leases granted on a hot read-dominated
	// subtree's synced standbys (fields: dir, frag, ranks, until,
	// read_frac).
	EvLeaseGrant Type = "lease_grant"
	// EvLeaseRevoke marks leases dying early (fields: n, reason:
	// write|migrate|crash|drain; dir and frag on write revokes, rank on
	// crash/drain revokes).
	EvLeaseRevoke Type = "lease_revoke"

	// Tenant QoS events.
	// EvTenantThrottle marks a tenant's token bucket denying admission
	// during one tick (fields: tenant, n, tokens).
	EvTenantThrottle Type = "tenant_throttle"
)

// AllTypes lists every event type in a stable order.
func AllTypes() []Type {
	return []Type{
		EvEpoch, EvRank, EvTrigger, EvPlan, EvSelect,
		EvMigrationPlanned, EvMigrationActivated, EvMigrationFrozen,
		EvMigrationCompleted, EvMigrationDropped, EvMigrationAborted,
		EvCrash, EvRecover, EvTakeover,
		EvBackoffEnter, EvBackoffExit,
		EvScaleDecision, EvDrainStart, EvDrainComplete,
		EvReplicaPromote, EvJournalLag, EvRereplicate,
		EvBatchFlush, EvBatchCommit, EvBatchRequeue,
		EvLeaseGrant, EvLeaseRevoke,
		EvTenantThrottle,
	}
}

// F is an event's payload: flat key -> value, where values are JSON
// scalars (or small slices). Keys are serialized in sorted order so
// the JSONL output is deterministic.
type F map[string]any

// Event is one structured trace record.
type Event struct {
	Tick   int64
	Type   Type
	Fields F
}

// AppendJSON appends the event's single-line JSON encoding (no
// trailing newline) to dst: {"tick":..,"type":"..",<sorted fields>}.
func (e Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"tick":`...)
	dst = strconv.AppendInt(dst, e.Tick, 10)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, string(e.Type))
	var scratch [16]string // no emit site has more fields; more spill to the heap
	keys := scratch[:0]
	for k := range e.Fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, ',')
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		dst = appendJSONValue(dst, e.Fields[k])
	}
	return append(dst, '}')
}

// appendJSONValue appends v exactly as encoding/json would marshal it.
// The types nearly every field has are written directly; everything
// else (named types, slices, strings that need escaping) goes through
// json.Marshal, so the typed arms are only ever a faster way to the
// same bytes (TestAppendJSONMatchesEncodingJSON).
func appendJSONValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case bool:
		return strconv.AppendBool(dst, x)
	case float64:
		// encoding/json's rule: %f, or %e when the exponent is < -6 or
		// >= 21, then with a two-digit negative exponent's leading zero
		// cut (an %e rendering is at least five bytes). NaN and the
		// infinities are not JSON: they fall through.
		if abs := math.Abs(x); abs <= math.MaxFloat64 {
			format := byte('f')
			if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
				format = 'e'
			}
			dst = strconv.AppendFloat(dst, x, format, -1, 64)
			if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
				dst[n-2] = dst[n-1]
				dst = dst[:n-1]
			}
			return dst
		}
	case string:
		return appendJSONString(dst, x)
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v))
	}
	return append(dst, b...)
}

// escaped is a string on its way to appendJSONValue's fallback arm.
type escaped string

// appendJSONString appends s, unboxed, as a JSON string: copied through
// when it is printable ASCII free of the characters encoding/json
// escapes (HTML's <, > and & among them), marshalled otherwise.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONValue(dst, escaped(s))
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// String renders the event compactly for test failures and summaries.
func (e Event) String() string { return string(e.AppendJSON(nil)) }

// Sink consumes events. Write must not retain the Fields map past the
// call unless it copies it: Bus.Emit recycles every event's Fields map
// after fan-out, so a sink that stores events (the Ring) must copy the
// map first.
type Sink interface {
	Write(Event)
	Close() error
}

// fieldPool recycles the Fields maps of emitted events, so tracing
// stays allocation-free in the steady state. Maps keep their bucket
// capacity across recycles.
var fieldPool = sync.Pool{New: func() any { return make(F, 16) }}

// AcquireF returns an empty Fields map from the pool. Pass the event
// built from it to Bus.Emit, which recycles the map after fan-out;
// after that call the map must not be used again.
func AcquireF() F {
	m := fieldPool.Get().(F)
	clear(m)
	return m
}

// Bus fans events out to its sinks, optionally filtered by type. A nil
// *Bus is a valid, permanently-disabled bus: Enabled reports false and
// Emit is a no-op, so components hold a *Bus unconditionally and pay
// only a nil check when tracing is off.
type Bus struct {
	sinks []Sink
	allow map[Type]bool // nil = all types pass
}

// NewBus creates a bus emitting to the given sinks (all event types
// enabled).
func NewBus(sinks ...Sink) *Bus { return &Bus{sinks: sinks} }

// Allow restricts the bus to the given event types. Calling it with no
// types re-enables everything.
func (b *Bus) Allow(types ...Type) {
	if len(types) == 0 {
		b.allow = nil
		return
	}
	b.allow = make(map[Type]bool, len(types))
	for _, t := range types {
		b.allow[t] = true
	}
}

// Enabled reports whether events of type t reach any sink. It is safe
// (and false) on a nil bus — the fast path every emit site guards
// with.
func (b *Bus) Enabled(t Type) bool {
	if b == nil || len(b.sinks) == 0 {
		return false
	}
	return b.allow == nil || b.allow[t]
}

// Emit delivers the event to every sink, then returns its Fields map
// to the pool. The Fields map must come from AcquireF (or be one the
// caller relinquishes); it must not be touched after this call.
// Callers should guard with Enabled to avoid building the map when
// tracing is off; Emit itself re-checks, so an unguarded call is
// merely wasteful, never wrong.
func (b *Bus) Emit(e Event) {
	if b.Enabled(e.Type) {
		for _, s := range b.sinks {
			s.Write(e)
		}
	}
	if e.Fields != nil {
		fieldPool.Put(e.Fields)
	}
}

// Close closes every sink, returning the first error.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	var first error
	for _, s := range b.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BusCarrier is implemented by components (balancers, in particular)
// that can emit trace events; the cluster hands them its bus at
// construction time.
type BusCarrier interface {
	SetBus(*Bus)
}

// ParseTypes parses a comma-separated event-type list ("epoch,rank").
// The empty string and "all" mean every type; unknown names are an
// error listing the valid set.
func ParseTypes(spec string) ([]Type, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return nil, nil
	}
	var out []Type
	for _, part := range strings.Split(spec, ",") {
		t := Type(strings.TrimSpace(part))
		if t == "" {
			continue
		}
		if !slices.Contains(AllTypes(), t) {
			var names []string
			for _, v := range AllTypes() {
				names = append(names, string(v))
			}
			return nil, fmt.Errorf("obs: unknown event type %q (valid: %s)", t, strings.Join(names, ", "))
		}
		out = append(out, t)
	}
	return out, nil
}
