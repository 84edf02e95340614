package client

import (
	"math/rand"
	"testing"

	"repro/internal/namespace"
	"repro/internal/workload"
)

func specOf(ops []workload.Op, start int64, rate float64) workload.ClientSpec {
	return workload.ClientSpec{Stream: workload.NewOpList(ops), StartTick: start, RateScale: rate}
}

func TestClientBasics(t *testing.T) {
	ops := []workload.Op{{Kind: workload.OpLookup}, {Kind: workload.OpOpen}}
	c := New(3, specOf(ops, 5, 1), 10)
	if c.ID != 3 || c.StartTick() != 5 || c.Rate() != 10 {
		t.Fatal("constructor fields")
	}
	if c.Done() {
		t.Fatal("fresh client done")
	}
}

// TestRequeueInflightUnderflowShows: re-queueing more journaled ops than
// are in flight leaves the count negative, where the auditor's
// "inflight outside [0, pending]" check sees it, instead of clamping
// the error away.
func TestRequeueInflightUnderflowShows(t *testing.T) {
	c := New(0, specOf(nil, 0, 1), 1)
	c.MarkInflight(2)
	c.RequeueInflight(3)
	if got := c.Inflight(); got != -1 {
		t.Fatalf("inflight = %d after re-queueing 3 of 2, want -1", got)
	}
}

func TestClientRateScaleAndDefaults(t *testing.T) {
	c := New(0, specOf(nil, 0, 0.5), 100)
	if c.Rate() != 50 {
		t.Fatalf("rate = %v", c.Rate())
	}
	// Zero rate scale falls back to base rate.
	c2 := New(0, specOf(nil, 0, 0), 100)
	if c2.Rate() != 100 {
		t.Fatalf("zero-scale rate = %v", c2.Rate())
	}
	// Degenerate rates clamp to 1.
	c3 := New(0, specOf(nil, 0, 1), 0)
	if c3.Rate() != 1 {
		t.Fatalf("degenerate rate = %v", c3.Rate())
	}
}

func TestAccrueCreditWholeAndFractional(t *testing.T) {
	c := New(0, specOf(nil, 0, 1), 2.5)
	if n := c.AccrueCredit(); n != 2 {
		t.Fatalf("first tick credit = %d", n)
	}
	if n := c.AccrueCredit(); n != 3 { // 0.5 carried + 2.5
		t.Fatalf("second tick credit = %d", n)
	}
}

func TestAccrueCreditNoBanking(t *testing.T) {
	// A long stall must not bank an unbounded burst: the carried
	// fraction is capped at one tick's rate.
	c := New(0, specOf(nil, 0, 1), 3)
	for i := 0; i < 10; i++ {
		_ = c.AccrueCredit()
	}
	if n := c.AccrueCredit(); n > 6 {
		t.Fatalf("burst after stall = %d, want <= 6", n)
	}
}

func TestNextOpRetainComplete(t *testing.T) {
	ops := []workload.Op{{Kind: workload.OpLookup}, {Kind: workload.OpOpen}}
	c := New(0, specOf(ops, 0, 1), 1)
	op1, ok := c.NextOp(0)
	if !ok || op1.Kind != workload.OpLookup {
		t.Fatal("first op")
	}
	// Stall: the same op must come back.
	c.Retain()
	op1b, ok := c.NextOp(1)
	if !ok || op1b.Kind != workload.OpLookup {
		t.Fatal("retained op must repeat")
	}
	// Completed at tick 2 after first attempt at tick 0: latency 3.
	if lat := c.CompleteOp(2); lat != 3 {
		t.Fatalf("latency = %d, want 3", lat)
	}
	op2, ok := c.NextOp(3)
	if !ok || op2.Kind != workload.OpOpen {
		t.Fatal("second op")
	}
	// Served on its first attempt: latency 1.
	if lat := c.CompleteOp(3); lat != 1 {
		t.Fatalf("latency = %d, want 1", lat)
	}
	if _, ok := c.NextOp(4); ok {
		t.Fatal("stream must end")
	}
	if c.OpsDone() != 2 || c.StallTicks() != 1 {
		t.Fatalf("opsDone=%d stalls=%d", c.OpsDone(), c.StallTicks())
	}
}

func TestMaybeFinish(t *testing.T) {
	ops := []workload.Op{{Kind: workload.OpOpen}}
	c := New(0, specOf(ops, 0, 1), 1)
	if c.MaybeFinish() {
		t.Fatal("cannot finish before the stream is drained")
	}
	op, _ := c.NextOp(0)
	_ = op
	c.CompleteOp(0)
	if _, ok := c.NextOp(1); ok {
		t.Fatal("stream should be done")
	}
	// Outstanding data debt blocks completion.
	c.AddDebt(100)
	if c.MaybeFinish() {
		t.Fatal("cannot finish with data debt")
	}
	c.PayDebt(100)
	if !c.MaybeFinish() {
		t.Fatal("should finish")
	}
	if !c.Done() {
		t.Fatal("done bookkeeping")
	}
	if c.MaybeFinish() {
		t.Fatal("finish must fire exactly once")
	}
}

func TestDebtAccounting(t *testing.T) {
	c := New(0, specOf(nil, 0, 1), 1)
	c.AddDebt(100)
	c.AddDebt(-5) // ignored
	if c.Debt() != 100 {
		t.Fatalf("debt = %d", c.Debt())
	}
	c.PayDebt(30)
	if c.Debt() != 70 {
		t.Fatalf("debt = %d", c.Debt())
	}
	c.PayDebt(1000)
	if c.Debt() != 0 {
		t.Fatal("overpayment must clamp at zero")
	}
}

func TestAuthCacheLRU(t *testing.T) {
	c := New(0, specOf(nil, 0, 1), 1)
	key := func(i int) namespace.FragKey {
		return namespace.FragKey{Dir: namespace.Ino(i + 10), Frag: namespace.WholeFrag}
	}
	// Fill beyond capacity.
	for i := 0; i < DefaultAuthCacheSize+10; i++ {
		c.CacheStore(key(i), namespace.MDSID(i%5))
	}
	// The oldest entries were evicted.
	if _, ok := c.CacheLookup(key(0)); ok {
		t.Fatal("oldest entry should be evicted")
	}
	// The newest survive with their authority.
	last := DefaultAuthCacheSize + 9
	auth, ok := c.CacheLookup(key(last))
	if !ok || auth != namespace.MDSID(last%5) {
		t.Fatalf("newest entry lost: ok=%v auth=%v", ok, auth)
	}
}

func TestAuthCacheLRUTouchOnLookup(t *testing.T) {
	c := New(0, specOf(nil, 0, 1), 1)
	key := func(i int) namespace.FragKey {
		return namespace.FragKey{Dir: namespace.Ino(i + 10), Frag: namespace.WholeFrag}
	}
	for i := 0; i < DefaultAuthCacheSize; i++ {
		c.CacheStore(key(i), 0)
	}
	// Touch key 0 so it becomes most-recent, then overflow by one.
	if _, ok := c.CacheLookup(key(0)); !ok {
		t.Fatal("key 0 should be cached")
	}
	c.CacheStore(key(DefaultAuthCacheSize), 1)
	if _, ok := c.CacheLookup(key(0)); !ok {
		t.Fatal("recently used entry must survive eviction")
	}
	if _, ok := c.CacheLookup(key(1)); ok {
		t.Fatal("least recently used entry must be evicted")
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := New(0, specOf(nil, 0, 1), 1)
	k := namespace.FragKey{Dir: 42, Frag: namespace.WholeFrag}
	c.CacheStore(k, 1)
	c.CacheStore(k, 3)
	auth, ok := c.CacheLookup(k)
	if !ok || auth != 3 {
		t.Fatal("update must overwrite the cached authority")
	}
}

func TestClearBackoffCancelsRetryWait(t *testing.T) {
	ops := []workload.Op{{Kind: workload.OpLookup}}
	c := New(0, specOf(ops, 0, 1), 1)
	c.AccrueCredit()
	if _, ok := c.NextOp(10); !ok {
		t.Fatal("op expected")
	}
	// Repeated down-rank failures: backoff grows past the recovery
	// point, so without clearing the client would idle long after the
	// rank is back.
	for i := 0; i < 5; i++ {
		c.RetainBackoff(10, 2)
	}
	if c.Backoff() != 16 || c.RetryReady(11) {
		t.Fatalf("backoff not engaged: backoff=%d", c.Backoff())
	}
	if c.BackoffRank() != 2 {
		t.Fatalf("backoff rank = %v, want 2", c.BackoffRank())
	}
	c.ClearBackoff()
	if c.Backoff() != 0 {
		t.Fatalf("backoff not cleared: %d", c.Backoff())
	}
	if c.BackoffRank() != -1 {
		t.Fatalf("backoff rank not cleared: %v", c.BackoffRank())
	}
	if !c.RetryReady(11) {
		t.Fatal("client must be ready to retry immediately after ClearBackoff")
	}
}

func TestPeekOpQueueDrawAhead(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.OpLookup},
		{Kind: workload.OpGetattr},
		{Kind: workload.OpOpen},
	}
	c := New(0, specOf(ops, 0, 1), 4)
	// Peeking ahead draws and issues without completing.
	op2 := c.PeekOp(2, 5)
	if op2 == nil || op2.Kind != workload.OpOpen {
		t.Fatal("peek at depth 2")
	}
	if c.Issued() != 3 || c.PendingOps() != 3 || c.OpsDone() != 0 {
		t.Fatalf("issued=%d pending=%d done=%d", c.Issued(), c.PendingOps(), c.OpsDone())
	}
	// Head stays stable across peeks; completes pop in FIFO order.
	if op0 := c.PeekOp(0, 5); op0.Kind != workload.OpLookup {
		t.Fatal("head changed")
	}
	c.CompleteOp(5)
	if op0 := c.PeekOp(0, 5); op0.Kind != workload.OpGetattr {
		t.Fatal("pop order")
	}
	c.CompleteOp(5)
	c.CompleteOp(6)
	if c.PeekOp(0, 6) != nil {
		t.Fatal("stream must be exhausted")
	}
	if !c.Idle() || c.Issued() != c.OpsDone() || c.PendingOps() != 0 {
		t.Fatalf("final accounting: issued=%d done=%d pending=%d", c.Issued(), c.OpsDone(), c.PendingOps())
	}
}

func TestPeekOpLatencyFromDrawTick(t *testing.T) {
	ops := []workload.Op{{Kind: workload.OpLookup}, {Kind: workload.OpOpen}}
	c := New(0, specOf(ops, 0, 1), 2)
	// Both ops drawn at tick 3; second completes at tick 5 -> latency 3.
	if c.PeekOp(1, 3) == nil {
		t.Fatal("draw ahead")
	}
	if lat := c.CompleteOp(3); lat != 1 {
		t.Fatalf("head latency = %d", lat)
	}
	if lat := c.CompleteOp(5); lat != 3 {
		t.Fatalf("queued latency = %d, want 3", lat)
	}
}

// refLRU is the map-plus-clock cache the flat array replaced, kept as
// the reference: a hit stamps the entry with the clock, a store into a
// full cache evicts the entry with the smallest stamp.
type refLRU struct {
	clock int64
	m     map[namespace.FragKey]authSlot
}

func (r *refLRU) lookup(key namespace.FragKey) (namespace.MDSID, bool) {
	e, ok := r.m[key]
	if !ok {
		return 0, false
	}
	r.clock++
	e.use = r.clock
	r.m[key] = e
	return e.auth, true
}

func (r *refLRU) store(key namespace.FragKey, auth namespace.MDSID) (evicted namespace.FragKey, did bool) {
	r.clock++
	if _, ok := r.m[key]; !ok && len(r.m) >= DefaultAuthCacheSize {
		oldUse := int64(1<<62 - 1)
		for k, e := range r.m {
			if e.use < oldUse {
				oldUse, evicted = e.use, k
			}
		}
		delete(r.m, evicted)
		did = true
	}
	r.m[key] = authSlot{key: key, auth: auth, use: r.clock}
	return evicted, did
}

// TestAuthCacheMatchesReferenceLRU drives the flat cache and the
// reference through random lookup/store sequences over 200 keys — three
// times the capacity, so eviction runs constantly — and requires the
// same hit, the same authority and the same cached key set (hence the
// same evicted key) at every step.
func TestAuthCacheMatchesReferenceLRU(t *testing.T) {
	key := func(i int) namespace.FragKey {
		// Two fragments per directory: keys that differ only in Frag.
		return namespace.FragKey{Dir: namespace.Ino(10 + i/2), Frag: namespace.Frag{Value: uint32(i%2) << 31, Bits: 1}}
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(0, specOf(nil, 0, 1), 1)
		ref := &refLRU{m: map[namespace.FragKey]authSlot{}}
		for step := 0; step < 5000; step++ {
			// Skewed picks so some keys are re-hit before they age out.
			k := key(rng.Intn(1 + rng.Intn(200)))
			if rng.Intn(3) == 0 {
				auth := namespace.MDSID(rng.Intn(5))
				evicted, did := ref.store(k, auth)
				c.CacheStore(k, auth)
				if did {
					for _, s := range c.cache.slots {
						if s.key == evicted {
							t.Fatalf("seed %d step %d: reference evicted %v, flat cache kept it", seed, step, evicted)
						}
					}
				}
			} else {
				wantAuth, wantOK := ref.lookup(k)
				if auth, ok := c.CacheLookup(k); ok != wantOK || auth != wantAuth {
					t.Fatalf("seed %d step %d: lookup %v = (%v, %v), reference (%v, %v)", seed, step, k, auth, ok, wantAuth, wantOK)
				}
			}
			if len(c.cache.slots) != len(ref.m) {
				t.Fatalf("seed %d step %d: %d slots, reference holds %d", seed, step, len(c.cache.slots), len(ref.m))
			}
			for _, s := range c.cache.slots {
				if e, ok := ref.m[s.key]; !ok || e.auth != s.auth || e.use != s.use {
					t.Fatalf("seed %d step %d: slot %+v, reference %+v (present %v)", seed, step, s, e, ok)
				}
			}
		}
	}
}

var sinkAuth namespace.MDSID

// BenchmarkCacheLookup prices one authority-cache probe. same-key is
// the last-hit slot's case, 8-keys round-robin a short scan, and
// 64-full-all-miss the worst case the flat array has: a full cache
// scanned end to end for a key that is not there.
func BenchmarkCacheLookup(b *testing.B) {
	key := func(i int) namespace.FragKey {
		return namespace.FragKey{Dir: namespace.Ino(10 + i), Frag: namespace.WholeFrag}
	}
	cases := []struct {
		name          string
		stored, asked int // keys [0, stored) cached; lookups cycle [first, first+asked), asked a power of two
		first         int
	}{
		{"same-key", 8, 1, 0},
		{"8-keys round-robin", 8, 8, 0},
		{"64-full-all-miss", DefaultAuthCacheSize, 8, DefaultAuthCacheSize},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := New(0, specOf(nil, 0, 1), 1)
			for i := 0; i < tc.stored; i++ {
				c.CacheStore(key(i), namespace.MDSID(i%5))
			}
			keys := make([]namespace.FragKey, tc.asked)
			for i := range keys {
				keys[i] = key(tc.first + i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, _ := c.CacheLookup(keys[i&(len(keys)-1)])
				sinkAuth += a
			}
		})
	}
}
