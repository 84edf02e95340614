package client

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

// serialStream yields limit ops (limit < 0: endless) numbered in Size,
// each from mk when that is set. Unlike an OpList it holds no slice of
// the ops it has handed out.
type serialStream struct {
	next, limit int64
	mk          func(i int64) workload.Op
}

func (s *serialStream) Draw(op *workload.Op) bool {
	if s.limit >= 0 && s.next >= s.limit {
		return false
	}
	o := workload.Op{Kind: workload.OpLookup}
	if s.mk != nil {
		o = s.mk(s.next)
	}
	op.Kind, op.Target, op.Parent, op.Name, op.Size, op.DataSize = o.Kind, o.Target, o.Parent, o.Name, s.next, o.DataSize
	s.next++
	return true
}

func (s *serialStream) Next() (op workload.Op, ok bool) { ok = s.Draw(&op); return }

// queueSlots is how many op slots the client's queue holds memory for,
// and how many released blocks it keeps beside them.
func queueSlots(c *Client) (slots, spares int) { return len(c.q.blocks) * qBlock, len(c.q.spare) }

// refQueue is the queue as a plain slice popped by reslicing — the
// model the block deque must be indistinguishable from.
type refQueue struct {
	stream                    workload.Stream
	q                         []pendingOp
	streamDone                bool
	issued, opsDone, inflight int64
}

func (r *refQueue) peek(k int, tick int64) (workload.Op, bool) {
	for k >= len(r.q) {
		if r.streamDone {
			return workload.Op{}, false
		}
		op, ok := r.stream.Next()
		if !ok {
			r.streamDone = true
			return workload.Op{}, false
		}
		r.q = append(r.q, pendingOp{op: op, since: tick})
		r.issued++
	}
	return r.q[k].op, true
}

func (r *refQueue) complete(tick int64) int64 {
	lat := tick - r.q[0].since + 1
	if lat < 1 {
		lat = 1
	}
	r.q = r.q[1:]
	r.opsDone++
	if r.inflight > 0 {
		r.inflight--
	}
	return lat
}

// TestOpQueueMatchesSliceModel drives a client and the slice model
// through the same random PeekOp / PeekSince / OpAt / CompleteOp /
// MarkInflight / RequeueInflight sequence. Phases alternate between
// building a backlog (peeks up to three blocks ahead, few completes),
// holding it, and draining it to empty, so the queue crosses many block
// boundaries, rewinds repeatedly and runs its stream dry mid-peek; every
// answer and every counter must agree at every step.
func TestOpQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := int64(4000 + rng.Intn(12000))
		c := New(0, workload.ClientSpec{Stream: &serialStream{limit: limit}}, 1)
		ref := &refQueue{stream: &serialStream{limit: limit}}
		tick := int64(0)
		phase, phaseLeft := 0, 0
		for step := 0; !(c.Idle() && ref.streamDone && len(ref.q) == 0); step++ {
			if step > 2_000_000 {
				t.Fatalf("seed %d: no progress", seed)
			}
			if phaseLeft == 0 {
				phase, phaseLeft = rng.Intn(3), 1+rng.Intn(400)
			}
			phaseLeft--
			if rng.Intn(4) == 0 {
				tick += int64(rng.Intn(3))
			}
			n := len(ref.q)
			// Phase 0 grows the backlog, 1 holds it, 2 drains it.
			peekOdds, completeOdds := [3]int{6, 3, 1}[phase], [3]int{1, 3, 8}[phase]
			switch r := rng.Intn(peekOdds + completeOdds + 2); {
			case r < peekOdds:
				k := rng.Intn(n + 1 + rng.Intn(3*qBlock))
				wantOp, wantOK := ref.peek(k, tick)
				if op := c.PeekOp(k, tick); (op != nil) != wantOK || (wantOK && *op != wantOp) {
					t.Fatalf("seed %d step %d: PeekOp(%d) = %+v, model (%+v, %v)", seed, step, k, op, wantOp, wantOK)
				}
			case r < peekOdds+completeOdds:
				for i := 1 + rng.Intn(1+rng.Intn(2*qBlock)); i > 0 && len(ref.q) > 0; i-- {
					if phase == 1 && len(ref.q) == 1 {
						break // hold: never drain
					}
					if lat, want := c.CompleteOp(tick), ref.complete(tick); lat != want {
						t.Fatalf("seed %d step %d: CompleteOp latency %d, model %d", seed, step, lat, want)
					}
				}
			case r == peekOdds+completeOdds && n > 0:
				k := rng.Intn(n)
				if op, since := *c.OpAt(k), c.PeekSince(k); op != ref.q[k].op || since != ref.q[k].since {
					t.Fatalf("seed %d step %d: queued op %d = (%+v, since %d), model %+v", seed, step, k, op, since, ref.q[k])
				}
			default:
				if buffered := int64(n) - ref.inflight; buffered > 0 && rng.Intn(2) == 0 {
					m := 1 + rng.Int63n(buffered)
					c.MarkInflight(int(m))
					ref.inflight += m
				} else if ref.inflight > 0 {
					m := 1 + rng.Int63n(ref.inflight)
					c.RequeueInflight(m)
					ref.inflight -= m
				}
			}
			if c.PendingOps() != int64(len(ref.q)) || c.BufferedOps() != int64(len(ref.q))-ref.inflight ||
				c.Inflight() != ref.inflight || c.Issued() != ref.issued || c.OpsDone() != ref.opsDone ||
				c.StreamDrained() != ref.streamDone || c.Idle() != (ref.streamDone && len(ref.q) == 0) {
				t.Fatalf("seed %d step %d: pending %d buffered %d inflight %d issued %d done %d drained %v idle %v; model pending %d inflight %d issued %d done %d drained %v",
					seed, step, c.PendingOps(), c.BufferedOps(), c.Inflight(), c.Issued(), c.OpsDone(), c.StreamDrained(), c.Idle(),
					len(ref.q), ref.inflight, ref.issued, ref.opsDone, ref.streamDone)
			}
		}
		if c.Issued() != limit || c.OpsDone() != limit {
			t.Fatalf("seed %d: issued %d done %d, stream had %d ops", seed, c.Issued(), c.OpsDone(), limit)
		}
	}
}

// TestOpQueueMemoryFollowsBacklog is a throttled write-back client: it
// draws 150 ops and completes 149 every tick, so its queue never drains
// and a pop-by-head-index slice keeps every op it ever issued. The
// queue may hold memory for the backlog plus the unused parts of its
// head and tail blocks, and two spare blocks, however many ops have
// passed through.
func TestOpQueueMemoryFollowsBacklog(t *testing.T) {
	c := New(0, workload.ClientSpec{Stream: &serialStream{limit: -1}}, 150)
	for tick := int64(0); tick < 5000; tick++ {
		if c.PeekOp(int(c.PendingOps())+149, tick) == nil {
			t.Fatal("endless stream ended")
		}
		for i := 0; i < 149; i++ {
			c.CompleteOp(tick)
		}
		if held, spares := queueSlots(c); held > int(c.PendingOps())+2*qBlock || spares > 2 {
			t.Fatalf("tick %d: queue holds %d op slots and %d spare blocks for a backlog of %d (%d issued)",
				tick, held, spares, c.PendingOps(), c.Issued())
		}
	}
	if c.PendingOps() != 5000 || c.Issued() != 150*5000 {
		t.Fatalf("pending %d issued %d", c.PendingOps(), c.Issued())
	}
	// Working the backlog off gives the memory back, spares included.
	for c.PendingOps() > 1 {
		c.CompleteOp(5000)
	}
	if held, spares := queueSlots(c); held > qBlock || spares > 2 {
		t.Fatalf("one op queued: %d op slots and %d spare blocks held", held, spares)
	}
	// A drained queue rewinds, so a client that drains every tick (the
	// sync engine's) keeps reusing the first slots of one block.
	c.CompleteOp(5000)
	if c.q.head != 0 || c.q.tail != 0 || len(c.q.blocks) != 1 {
		t.Fatalf("drained queue: head %d tail %d in %d blocks, want a rewound first block", c.q.head, c.q.tail, len(c.q.blocks))
	}
	// A stream that ends on a block boundary leaves no empty block: the
	// one added to draw an op that did not come is handed back.
	c = New(0, workload.ClientSpec{Stream: &serialStream{limit: qBlock}}, 1)
	if c.PeekOp(qBlock, 0) != nil || c.PendingOps() != qBlock || !c.StreamDrained() {
		t.Fatalf("pending %d drained %v, want the stream's %d ops and no more", c.PendingOps(), c.StreamDrained(), qBlock)
	}
	if len(c.q.blocks) != 1 || len(c.q.spare) != 1 {
		t.Fatalf("%d blocks and %d spares for one block of ops, want 1 and the handed-back 1", len(c.q.blocks), len(c.q.spare))
	}
}

// TestOpQueueDropsCompletedOps checks that a completed op's slot is
// zeroed: with later ops still queued behind it (so neither its block
// nor the queue is released), the inode it addressed must become
// collectable.
func TestOpQueueDropsCompletedOps(t *testing.T) {
	freed := make(chan struct{})
	c := New(0, workload.ClientSpec{Stream: &serialStream{limit: -1, mk: func(i int64) workload.Op {
		in := &namespace.Inode{Ino: namespace.Ino(i + 1)}
		if i == 0 {
			runtime.SetFinalizer(in, func(*namespace.Inode) { close(freed) })
		}
		return workload.Op{Kind: workload.OpLookup, Target: in}
	}}}, 10)
	if c.PeekOp(9, 0) == nil {
		t.Fatal("draw ahead")
	}
	c.CompleteOp(0)
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if c.PendingOps() != 9 {
				t.Fatalf("pending = %d", c.PendingOps())
			}
			return
		case <-deadline:
			t.Fatal("the queue still holds the completed op's target")
		case <-time.After(time.Millisecond):
		}
	}
}

var (
	sinkOp   workload.Op
	sinkKind workload.OpKind
)

// BenchmarkOpQueue prices the queue alone. drain is the sync engine's
// pattern — draw one, complete one, the queue empties every time — and
// must cost what a plain slice costs. zipf64 is the path the engine
// runs, per op: 64 Zipf clients (500 files each) each draw 150 ops a
// tick, then all complete them, in the plan-then-serve order. Medians
// of eight alternating runs on the 2-vCPU reference host (go1.24.0),
// Next and push at parent cd2724e → Draw into the slot: 71.2 → 49.2
// ns/op (an earlier set: 59.8 → 52.2). backlog is the throttled
// write-back pattern, per tick: draw 150, complete 100, and once
// 20 000 ops stand queued complete down to one (never to empty, which
// is what let the slice it replaced keep every op ever issued).
func BenchmarkOpQueue(b *testing.B) {
	b.Run("drain", func(b *testing.B) {
		c := New(0, workload.ClientSpec{Stream: &serialStream{limit: -1}}, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkOp, _ = c.NextOp(int64(i))
			c.CompleteOp(int64(i))
		}
	})
	b.Run("zipf64", func(b *testing.B) {
		specs, err := workload.NewZipf(workload.ZipfConfig{FilesPerClient: 500, OpsPerClient: 1 << 30}).
			Setup(namespace.NewTree(), 64, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		clients := make([]*Client, len(specs))
		for i, sp := range specs {
			clients[i] = New(i, sp, 150)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n, tick := 0, int64(0); n < b.N; n, tick = n+len(clients)*150, tick+1 {
			for _, c := range clients {
				for k := 0; k < 150; k++ {
					sinkKind = c.PeekOp(k, tick).Kind
				}
			}
			for _, c := range clients {
				for k := 0; k < 150; k++ {
					c.CompleteOp(tick)
				}
			}
		}
	})
	b.Run("backlog", func(b *testing.B) {
		c := New(0, workload.ClientSpec{Stream: &serialStream{limit: -1}}, 150)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick := int64(i)
			sinkOp = *c.PeekOp(int(c.PendingOps())+149, tick)
			done := 100
			if c.PendingOps() > 20000 {
				done = int(c.PendingOps()) - 1
			}
			for ; done > 0; done-- {
				c.CompleteOp(tick)
			}
		}
	})
}
