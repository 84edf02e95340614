package mds

import "repro/internal/namespace"

// Batch is one write-back client batch committed into a rank's
// group-commit journal. The ops themselves never leave the owning
// client's pending queue — the client stays the source of truth until
// the batch is applied — so a Batch is pure routing + accounting state:
// which client, how many ops, and the governing entry resolved for the
// batch's first op (one resolver chain walk per batch instead of per
// op). A batch whose rank crashes before application is dropped and its
// ops re-queue client-side exactly once (see Journal.Each / Drop).
type Batch struct {
	Client int             // owning client ID
	Rank   namespace.MDSID // rank whose journal currently holds the batch
	N      int             // unapplied ops remaining in the batch
	Since  int64           // draw tick of the batch's oldest op (flush-age clock)
	Ent    namespace.Entry // governing entry of the batch's first op
	Dead   bool            // fully applied or dropped; compacted lazily
}

// Journal is a rank's group-commit journal: the FIFO of flushed batches
// whose ops have been accepted for asynchronous application. Membership
// is by pointer with lazy compaction — a batch that is fully applied,
// dropped after a crash, or moved to another rank (authority migration)
// leaves a stale slot that the next Push sweeps out. The auditor's
// extended ops-conservation law reads Ops(): the sum over ranks must
// equal the sum of client Inflight() counters at every check point.
type Journal struct {
	rank namespace.MDSID
	q    []*Batch
	ops  int64 // unapplied ops across live batches
	live int   // live batches (Depth)
}

// owns reports whether the slot still belongs to this journal: moved
// and dead batches are stale slots awaiting compaction.
func (j *Journal) owns(b *Batch) bool { return !b.Dead && b.Rank == j.rank }

// Push appends a flushed batch. The caller has set b.Rank to this
// journal's rank. Compaction piggybacks here so the queue stays
// proportional to the live depth without a per-tick sweep.
func (j *Journal) Push(b *Batch) {
	if len(j.q) >= 16 && j.live*2 < len(j.q) {
		j.Compact()
	}
	j.q = append(j.q, b)
	j.ops += int64(b.N)
	j.live++
}

// Commit records n ops of a journaled batch applied by the serve phase.
// A batch that reaches zero remaining ops dies in place.
func (j *Journal) Commit(b *Batch, n int) {
	b.N -= n
	j.ops -= int64(n)
	if b.N <= 0 {
		b.Dead = true
		j.live--
	}
}

// Drop removes a live batch without applying it — the crash-requeue
// path. The owning client's in-flight prefix shrinks separately
// (client.RequeueInflight); the ops re-flush like fresh buffers.
func (j *Journal) Drop(b *Batch) {
	if !j.owns(b) {
		return
	}
	j.ops -= int64(b.N)
	b.Dead = true
	j.live--
}

// MoveBatch transfers a live batch between rank journals after its
// governing authority migrated. The stale slot in the source queue is
// swept by a later compaction.
func MoveBatch(from, to *Journal, b *Batch) {
	if !from.owns(b) || from == to {
		return
	}
	from.ops -= int64(b.N)
	from.live--
	b.Rank = to.rank
	to.Push(b)
}

// Each visits the live batches in flush order.
func (j *Journal) Each(fn func(*Batch)) {
	for _, b := range j.q {
		if j.owns(b) {
			fn(b)
		}
	}
}

// Compact rewrites the queue keeping only live owned batches, in order.
func (j *Journal) Compact() {
	w := 0
	for _, b := range j.q {
		if j.owns(b) {
			j.q[w] = b
			w++
		}
	}
	for i := w; i < len(j.q); i++ {
		j.q[i] = nil
	}
	j.q = j.q[:w]
}

// Reset clears the journal after a crash has dropped every batch.
func (j *Journal) Reset() {
	for i := range j.q {
		j.q[i] = nil
	}
	j.q = j.q[:0]
	j.ops = 0
	j.live = 0
}

// Ops returns the unapplied op count across live batches.
func (j *Journal) Ops() int64 { return j.ops }

// Depth returns the number of live batches queued.
func (j *Journal) Depth() int { return j.live }
