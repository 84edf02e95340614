// Package client models the workload-generating clients: each client
// runs one operation stream in a closed loop — it issues its next
// metadata op only after the previous one (and its data transfer, when
// the data path is enabled) has completed, at a bounded per-tick rate.
// An op routed to a saturated or frozen MDS blocks the client for the
// rest of the tick, which is how metadata imbalance stretches job
// completion time. (The write-back planner draws ahead of completion,
// but only while the client's queue holds less than FlushEvery ticks of
// its credit: a closed loop with a window, DESIGN §3.5.)
package client

import (
	"repro/internal/namespace"
	"repro/internal/workload"
)

// Client is one workload-driving client.
type Client struct {
	ID int
	// Tenant is the owning tenant's index from the workload spec (0 in
	// single-tenant runs). The engine's admission phase charges the
	// client's ops to this tenant's token bucket when QoS is enabled.
	Tenant int

	stream    workload.Stream
	startTick int64
	rate      float64 // ops per tick

	credit float64 // fractional-op accumulator
	// q is the FIFO of issued-but-unserved ops. The engine draws a run of
	// ops ahead of serving them so it can route a whole batch to one
	// rank; ops that stall stay queued and the head is re-attempted
	// first.
	q    opQueue
	debt int64 // unpaid data bytes
	// inflight counts queued ops that have been flushed into a server's
	// group-commit journal in write-back mode. They stay queued (the
	// client remains the source of truth until the batch is applied), so
	// issued == opsDone + queued always holds; inflight only partitions
	// the queue into [journaled prefix | locally buffered suffix].
	inflight int64

	streamDone bool
	readsTree  bool // stream consults the live namespace in Draw
	done       bool
	issued     int64 // ops drawn from the stream (completed or pending)
	opsDone    int64
	stallTicks int64

	// Retry backoff for ops that failed against a crashed rank: instead
	// of re-attempting every tick while the target is down (silent
	// spinning), the client waits backoff ticks, doubling up to
	// MaxBackoffTicks per consecutive failure, and resets on success.
	backoff     int64           // current backoff interval, 0 = none
	retryAt     int64           // earliest tick the pending op may be re-attempted
	retries     int64           // failed attempts that entered backoff
	backoffRank namespace.MDSID // rank whose failure drove the backoff (-1 = none)

	cache authCache
}

// MaxBackoffTicks caps the exponential retry backoff. With 1-second
// ticks this is a 16 s ceiling, on the order of real client-side
// request timeouts.
const MaxBackoffTicks = 16

// authCache is the client's subtree-authority cache. CephFS clients
// learn which MDS owns which subtree and contact it directly; a request
// is forwarded between MDSs only when the client's mapping is missing
// or stale. The cache is a small LRU, so a namespace fragmented into
// very many subtrees (Dir-Hash) keeps missing and keeps forwarding —
// the effect Figure 14 measures.
//
// It is a flat array of at most DefaultAuthCacheSize slots, each
// stamped with the clock of its last use: a lookup compares the slot it
// hit last before scanning, and a store into a full cache overwrites
// the slot with the smallest stamp.
type authCache struct {
	clock int64
	last  int // slot of the most recent hit or store
	slots []authSlot
}

type authSlot struct {
	key  namespace.FragKey
	auth namespace.MDSID
	use  int64
}

// DefaultAuthCacheSize is the per-client authority cache capacity.
const DefaultAuthCacheSize = 64

// find returns the slot holding key, or -1.
func (a *authCache) find(key namespace.FragKey) int {
	if a.last < len(a.slots) && a.slots[a.last].key == key {
		return a.last
	}
	for i := range a.slots {
		if a.slots[i].key == key {
			return i
		}
	}
	return -1
}

// CacheLookup reports the cached authority for a subtree, if any.
func (c *Client) CacheLookup(key namespace.FragKey) (namespace.MDSID, bool) {
	a := &c.cache
	i := a.find(key)
	if i < 0 {
		return 0, false
	}
	a.clock++
	a.last = i
	a.slots[i].use = a.clock
	return a.slots[i].auth, true
}

// CacheStore records a freshly learned subtree authority, evicting the
// least recently used mapping when full.
func (c *Client) CacheStore(key namespace.FragKey, auth namespace.MDSID) {
	a := &c.cache
	a.clock++
	i := a.find(key)
	switch {
	case i >= 0:
	case len(a.slots) < DefaultAuthCacheSize:
		i = len(a.slots)
		a.slots = append(a.slots, authSlot{})
	default:
		i = 0
		for j := range a.slots {
			if a.slots[j].use < a.slots[i].use {
				i = j
			}
		}
	}
	a.last = i
	a.slots[i] = authSlot{key: key, auth: auth, use: a.clock}
}

// New creates a client from its workload spec with the given base rate
// (ops per tick before the per-client RateScale).
func New(id int, spec workload.ClientSpec, baseRate float64) *Client {
	rate := baseRate * spec.RateScale
	if spec.RateScale == 0 {
		rate = baseRate
	}
	if rate <= 0 {
		rate = 1
	}
	readsTree := false
	if tr, ok := spec.Stream.(workload.TreeReader); ok {
		readsTree = tr.ReadsTree()
	}
	return &Client{
		ID:          id,
		Tenant:      spec.Tenant,
		stream:      spec.Stream,
		startTick:   spec.StartTick,
		rate:        rate,
		backoffRank: -1,
		readsTree:   readsTree,
	}
}

// StreamReadsTree reports whether the client's stream consults the live
// namespace when drawing ops (see workload.TreeReader). The engine must
// not draw ahead of an unadopted create for such streams.
func (c *Client) StreamReadsTree() bool { return c.readsTree }

// StreamDrained reports whether the client's stream is exhausted: every
// op it will ever issue is already queued. The write-back planner uses
// it for the tail flush (a final short run would otherwise wait out
// FlushEvery for ops that can never arrive).
func (c *Client) StreamDrained() bool { return c.streamDone }

// StartTick returns the tick at which the client begins issuing.
func (c *Client) StartTick() int64 { return c.startTick }

// Rate returns the client's op rate per tick.
func (c *Client) Rate() float64 { return c.rate }

// Done reports whether the client has finished its job.
func (c *Client) Done() bool { return c.done }

// OpsDone returns the number of completed operations.
func (c *Client) OpsDone() int64 { return c.opsDone }

// StallTicks returns how many ticks the client spent blocked.
func (c *Client) StallTicks() int64 { return c.stallTicks }

// Debt returns the unpaid data bytes blocking the client.
func (c *Client) Debt() int64 { return c.debt }

// AddDebt charges the client data bytes to move before its next op.
func (c *Client) AddDebt(bytes int64) {
	if bytes > 0 {
		c.debt += bytes
	}
}

// PayDebt credits granted bytes against the client's data debt.
func (c *Client) PayDebt(bytes int64) {
	c.debt -= bytes
	if c.debt < 0 {
		c.debt = 0
	}
}

// AccrueCredit adds one tick's worth of rate and returns the whole
// number of ops the client may issue this tick.
func (c *Client) AccrueCredit() int {
	c.credit += c.rate
	n := int(c.credit)
	c.credit -= float64(n)
	// Cap the carried fraction so long stalls don't bank a burst.
	if c.credit > c.rate {
		c.credit = c.rate
	}
	return n
}

// NextOp returns the op to attempt next: the retained (stalled) queue
// head if any, otherwise the next from the stream, stamping its draw
// tick. ok=false means the stream is exhausted and the queue is empty.
func (c *Client) NextOp(tick int64) (workload.Op, bool) {
	if op := c.PeekOp(0, tick); op != nil {
		return *op, true
	}
	return workload.Op{}, false
}

// PeekOp returns the k-th queued op (0 = the one to attempt next) in
// place, drawing from the stream as needed to fill the queue that far.
// Drawn ops are issued immediately but stay queued until CompleteOp
// pops them. nil means the stream ran dry before position k. Queue
// blocks never move, so the pointer stays valid until that op completes
// (CompleteOp zeroes the slot: read what you need of the head first).
func (c *Client) PeekOp(k int, tick int64) *workload.Op {
	for k >= c.q.len() {
		if c.streamDone {
			return nil
		}
		// The stream writes the op straight into the tail slot: a
		// 56-byte op returned by value would be stored and reloaded
		// through memory, and copied again into the queue.
		p := c.q.slot()
		if !c.stream.Draw(&p.op) {
			c.streamDone = true
			c.q.unslot()
			return nil
		}
		p.since = tick
		c.q.tail++
		c.issued++
	}
	return &c.q.at(k).op
}

// PeekSince returns the tick the k-th queued op was drawn from the
// stream. The op must exist (see PeekOp); the write-back planner uses
// the draw tick of the oldest buffered op to age-trigger flushes.
func (c *Client) PeekSince(k int) int64 { return c.q.at(k).since }

// OpAt returns the k-th queued op in place without consulting the
// stream. The op must already be queued (see PeekOp, also for how long
// the pointer is valid): the serve paths read ops the plan drew, so they
// skip PeekOp's draw loop.
func (c *Client) OpAt(k int) *workload.Op { return &c.q.at(k).op }

// MarkInflight records that the first n buffered ops past the current
// in-flight prefix have been flushed into a group-commit journal.
func (c *Client) MarkInflight(n int) { c.inflight += int64(n) }

// Inflight returns how many queued ops sit in server-side journals.
func (c *Client) Inflight() int64 { return c.inflight }

// RequeueInflight returns n journaled ops to the locally buffered state
// after their batch was dropped (rank crash with an unapplied journal).
// The ops never left the queue, so this is exactly-once by construction:
// the batch object is gone and the ops re-flush like fresh buffers. A
// count that goes negative is left for the auditor to report.
func (c *Client) RequeueInflight(n int64) { c.inflight -= n }

// BufferedOps returns how many queued ops are still buffered locally
// (issued but not yet flushed to any journal).
func (c *Client) BufferedOps() int64 { return c.PendingOps() - c.inflight }

// Issued returns how many ops the client has drawn from its stream.
// Every issued op is either completed or still queued — the
// conservation law the state auditor checks.
func (c *Client) Issued() int64 { return c.issued }

// PendingOps returns how many issued-but-unserved ops the client holds.
func (c *Client) PendingOps() int64 { return int64(c.q.len()) }

// Idle reports that the client has nothing left to attempt: its stream
// is exhausted and its queue is empty.
func (c *Client) Idle() bool { return c.streamDone && c.q.len() == 0 }

// Credit returns the fractional-op accumulator (bounded by one tick's
// rate; see AccrueCredit).
func (c *Client) Credit() float64 { return c.credit }

// RetryAt returns the earliest tick the pending op may be re-attempted
// (0 when the client is not backing off).
func (c *Client) RetryAt() int64 { return c.retryAt }

// Retain records that the current op stalled and must be retried. The
// retry happens on the next tick (a saturated or frozen target usually
// clears within one tick, so no backoff applies).
func (c *Client) Retain() { c.stallTicks++ }

// RetainBackoff records that the current op failed against the given
// down rank and schedules the retry with capped exponential backoff:
// 1, 2, 4, … up to MaxBackoffTicks after consecutive failures. Success
// (CompleteOp) resets the backoff. The failing rank is remembered so
// that recovery of an unrelated rank does not release the client (see
// BackoffRank).
func (c *Client) RetainBackoff(tick int64, rank namespace.MDSID) {
	c.stallTicks++
	c.retries++
	if c.backoff < 1 {
		c.backoff = 1
	} else {
		c.backoff *= 2
		if c.backoff > MaxBackoffTicks {
			c.backoff = MaxBackoffTicks
		}
	}
	c.retryAt = tick + c.backoff
	c.backoffRank = rank
}

// BackoffRank returns the rank whose down state drove the current
// backoff, or -1 when the client is not backing off.
func (c *Client) BackoffRank() namespace.MDSID { return c.backoffRank }

// RetryReady reports whether the client may attempt an op at the given
// tick (false only while backing off after down-rank failures).
func (c *Client) RetryReady(tick int64) bool { return tick >= c.retryAt }

// ClearBackoff cancels any pending retry backoff immediately. The
// cluster calls it when a crashed rank recovers: the failures that
// drove the backoff are gone, so making the client wait out the
// residual window would only extend the outage it observes.
func (c *Client) ClearBackoff() {
	c.backoff = 0
	c.retryAt = 0
	c.backoffRank = -1
}

// Retries returns how many op attempts failed into backoff.
func (c *Client) Retries() int64 { return c.retries }

// Backoff returns the current backoff interval in ticks (0 when the
// client is not backing off).
func (c *Client) Backoff() int64 { return c.backoff }

// CompleteOp marks the queue head as served, pops it, and returns its
// latency in ticks (1 for an op served in the tick it was drawn).
func (c *Client) CompleteOp(tick int64) int64 {
	// The pop is written out here: as an opQueue method it would not
	// inline (it calls release), and every served op passes through.
	q := &c.q
	p := &q.blocks[0][q.head] // the head never leaves the first block
	lat := tick - p.since + 1
	if lat < 1 {
		lat = 1
	}
	// The pointers are cleared so the queue does not keep the served
	// op's inodes or name reachable. Field by field, not *p =
	// pendingOp{}: three write barriers, not a bulk one per op.
	p.op.Target, p.op.Parent, p.op.Name = nil, nil, ""
	if q.head++; q.head == q.tail {
		// Drained: rewind into the first (by now the only) block.
		q.head, q.tail = 0, 0
	} else if q.head == qBlock {
		q.release()
	}
	c.opsDone++
	if c.inflight > 0 {
		// Write-back mode: the served op was the head of a journaled
		// batch; shrink the in-flight prefix with it.
		c.inflight--
	}
	c.backoff = 0
	c.retryAt = 0
	c.backoffRank = -1
	return lat
}

// MaybeFinish marks the client done when its stream is exhausted, its
// queue is empty, and all data debt is paid. It returns true on the
// transition; the engine records the completion tick (the recorder's
// JCT owns it).
func (c *Client) MaybeFinish() bool {
	if c.done || !c.Idle() || c.debt > 0 {
		return false
	}
	c.done = true
	return true
}
