package cluster

import "container/heap"

// eventQueue holds the cluster mutations scheduled for a future tick
// (MDS additions, capacity changes, crashes, recoveries, failover
// passes). Events fire in tick order, and two events scheduled for the
// same tick always fire in submission order, or seeded runs would
// diverge. The zero value is ready to use.
type eventQueue struct {
	h   eventHeap
	seq int
}

type event struct {
	tick int64
	fn   func()
	seq  int // submission order breaks same-tick ties
}

// schedule enqueues fn to run at the given tick.
func (q *eventQueue) schedule(tick int64, fn func()) {
	q.seq++
	heap.Push(&q.h, &event{tick: tick, fn: fn, seq: q.seq})
}

// runDue fires (in order) every event scheduled at or before tick,
// including the ones a firing event schedules for a tick already due.
func (q *eventQueue) runDue(tick int64) {
	for q.h.Len() > 0 && q.h[0].tick <= tick {
		heap.Pop(&q.h).(*event).fn()
	}
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
