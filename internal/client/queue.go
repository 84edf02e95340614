package client

import "repro/internal/workload"

// pendingOp is one queued op plus the tick it was drawn from the
// stream, which is when its latency clock starts.
type pendingOp struct {
	op    workload.Op
	since int64
}

// qBlock is the number of ops in one queue block. A client whose queue
// drains every tick lives inside its first block, so the block is sized
// to what such a client's draw-ahead needs anyway (a tick's worth of
// ops, 16 KB).
const (
	qShift = 8
	qBlock = 1 << qShift
)

type opBlock [qBlock]pendingOp

// opQueue is a FIFO of ops held by value (stream ops never escape to
// the heap one by one) in fixed-size blocks: drawing past the last
// block adds one, popping past the first releases it, so the queue's
// memory follows the ops queued, not the ops ever issued, and nothing
// is copied when a backlog grows. A released block is kept on a short
// spare list and reused at the tail, and a drained queue rewinds into
// its first block, so a steady tick allocates nothing.
type opQueue struct {
	blocks     []*opBlock // blocks[0] holds the head
	spare      []*opBlock // released blocks, at most two
	head, tail int        // op offsets from blocks[0][0]; head < qBlock
}

func (q *opQueue) len() int { return q.tail - q.head }

// at returns the k-th queued op (0 = the head), which must exist.
func (q *opQueue) at(k int) *pendingOp {
	i := q.head + k
	return &q.blocks[i>>qShift][i&(qBlock-1)]
}

// slot returns the tail slot, adding a block when the last is full. A
// stream draws into it in place (workload.Stream.Draw); the op is queued
// only once the caller advances tail.
func (q *opQueue) slot() *pendingOp {
	if q.tail == len(q.blocks)<<qShift {
		var b *opBlock
		if n := len(q.spare); n > 0 {
			b, q.spare = q.spare[n-1], q.spare[:n-1]
		} else {
			b = new(opBlock)
		}
		q.blocks = append(q.blocks, b)
	}
	return &q.blocks[q.tail>>qShift][q.tail&(qBlock-1)]
}

// unslot hands back a block that slot added for an op the stream did
// not have, so that the last block always holds an op.
func (q *opQueue) unslot() {
	if n := len(q.blocks); n > 1 && q.tail == (n-1)<<qShift {
		if len(q.spare) < 2 {
			q.spare = append(q.spare, q.blocks[n-1])
		}
		q.blocks[n-1] = nil
		q.blocks = q.blocks[:n-1]
	}
}

// release hands the first block, which the head has just left, to the
// spare list.
func (q *opQueue) release() {
	b := q.blocks[0]
	n := copy(q.blocks, q.blocks[1:])
	q.blocks[n] = nil
	q.blocks = q.blocks[:n]
	if len(q.spare) < 2 {
		q.spare = append(q.spare, b)
	}
	q.head, q.tail = 0, q.tail-qBlock
}
