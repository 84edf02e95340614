package tenant

import (
	"math"
	"testing"
)

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		ok   bool
	}{
		{"default", DefaultPolicy(), true},
		{"burst above rate", Policy{Rate: 10, Burst: 20}, true},
		{"burst equals rate", Policy{Rate: 1, Burst: 1}, true},
		{"zero rate", Policy{Rate: 0, Burst: 10}, false},
		{"negative rate", Policy{Rate: -1, Burst: 10}, false},
		{"nan rate", Policy{Rate: math.NaN(), Burst: 10}, false},
		{"burst below rate", Policy{Rate: 10, Burst: 5}, false},
		{"noisy's unthrottled bucket", Policy{Rate: 1e9, Burst: 2e9}, true},
		{"one millionth an op", Policy{Rate: 1e-6, Burst: 1e-6}, true},
		{"below a millionth", Policy{Rate: 4e-7, Burst: 10}, false},
		{"rate at the bound", Policy{Rate: 1e12, Burst: 1e12}, true},
		{"rate past the bound", Policy{Rate: 2e12, Burst: 2e12}, false},
		{"burst past the bound", Policy{Rate: 10, Burst: 1.5e12}, false},
		{"infinite burst", Policy{Rate: 10, Burst: math.Inf(1)}, false},
	}
	for _, c := range cases {
		if err := c.pol.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// refill drains tenant t's bucket and returns what one tick puts back:
// the tenant's rate.
func refill(m *Manager, t int) float64 {
	m.Take(t, int(m.BurstOf(t)))
	m.BeginTick()
	return m.Tokens(t)
}

// TestBindWeightModes: every tenant gets the policy's bucket whatever
// its client count, and the bucket starts full.
func TestBindWeightModes(t *testing.T) {
	m := MustManager(Policy{Rate: 10, Burst: 30})
	if err := m.Bind([]int{1, 4}); err != nil {
		t.Fatal(err)
	}
	if m.BurstOf(1) != 30 || m.Tokens(1) != 30 {
		t.Errorf("tenant 1 burst %v, tokens %v, want a full bucket of 30", m.BurstOf(1), m.Tokens(1))
	}
	if r0, r1 := refill(m, 0), refill(m, 1); r0 != 10 || r1 != 10 {
		t.Errorf("rates = %v, %v, want 10, 10", r0, r1)
	}
	if err := m.Bind(nil); err == nil {
		t.Error("Bind(nil) should fail")
	}
	if err := m.Bind([]int{3, 0}); err == nil {
		t.Error("Bind with an empty tenant should fail")
	}
}

func TestTakeRefundBounds(t *testing.T) {
	m := MustManager(Policy{Rate: 5, Burst: 10})
	if err := m.Bind([]int{2}); err != nil {
		t.Fatal(err)
	}
	if got := m.Take(0, 4); got != 4 {
		t.Fatalf("Take(4) on a full bucket = %d, want 4", got)
	}
	if got := m.Take(0, 100); got != 6 {
		t.Fatalf("Take(100) with 6 tokens = %d, want 6", got)
	}
	if got := m.Take(0, 1); got != 0 {
		t.Fatalf("Take on a dry bucket = %d, want 0", got)
	}
	m.Refund(0, 3)
	if m.Tokens(0) != 3 {
		t.Fatalf("tokens after refund = %v, want 3", m.Tokens(0))
	}
	m.Refund(0, 100)
	if m.Tokens(0) != 10 {
		t.Fatalf("refund must clamp at burst, tokens = %v", m.Tokens(0))
	}
	m.BeginTick()
	if m.Tokens(0) != 10 {
		t.Fatalf("refill must clamp at burst, tokens = %v", m.Tokens(0))
	}
	if m.Tokens(0) < 0 || m.Tokens(0) > m.BurstOf(0) {
		t.Fatalf("tokens out of [0, burst]: %v", m.Tokens(0))
	}
}

func TestFractionalTokensStayWhole(t *testing.T) {
	m := MustManager(Policy{Rate: 1.5, Burst: 2})
	if err := m.Bind([]int{1}); err != nil {
		t.Fatal(err)
	}
	m.Take(0, 2) // drain the full bucket
	m.BeginTick()
	// 1.5 tokens: only whole ops are granted, the half token stays.
	if got := m.Take(0, 5); got != 1 {
		t.Fatalf("Take with 1.5 tokens = %d, want 1", got)
	}
	m.BeginTick()
	// 0.5 + 1.5 = 2 tokens now.
	if got := m.Take(0, 5); got != 2 {
		t.Fatalf("fractional carry lost: Take = %d, want 2", got)
	}
}

// TestBucketAtTheBound: the largest bucket Validate accepts refills,
// grants and refunds without overflowing.
func TestBucketAtTheBound(t *testing.T) {
	m := bucketFor(t, 1e12, 1e12)
	for range 3 {
		if got := tick(m, math.MaxInt); got != 1e12 {
			t.Fatalf("a full bucket of 1e12 granted %d", got)
		}
		m.Refund(0, 1e12)
		if m.Tokens(0) != 1e12 {
			t.Fatalf("tokens after a full refund = %v, want 1e12", m.Tokens(0))
		}
		m.Take(0, 1e12)
	}
}

// bucketFor returns a bound one-tenant manager with the given bucket.
func bucketFor(t *testing.T, rate, burst float64) *Manager {
	t.Helper()
	m := MustManager(Policy{Rate: rate, Burst: burst})
	if err := m.Bind([]int{1}); err != nil {
		t.Fatal(err)
	}
	return m
}

// tick runs one engine tick of a tenant asking for d ops: the refill,
// then the take, as Step orders them.
func tick(m *Manager, d int) int {
	m.BeginTick()
	return m.Take(0, d)
}

// TestBucketClosedForm: a tenant asking for a constant D ops per tick is
// granted min(t·D, Burst + Rate·(t−1)) in total after t ticks. The
// bucket starts full, so the first refill adds nothing; past that, each
// tick adds Rate until demand has spent what the bucket held.
func TestBucketClosedForm(t *testing.T) {
	const rate, burst = 10, 35
	for _, d := range []int{4, rate, 17} {
		m := bucketFor(t, rate, burst)
		total := 0
		for n := 1; n <= 40; n++ {
			total += tick(m, d)
			if want := min(n*d, burst+rate*(n-1)); total != want {
				t.Fatalf("D=%d: %d ops granted after %d ticks, want %d", d, total, n, want)
			}
		}
	}

	// A fractional rate grants whole ops only, so the total trails the
	// closed form by the fraction still in the bucket: always less than
	// one token, as tokens accrue exactly.
	m := bucketFor(t, 0.7, 3)
	total := 0
	for n := 1; n <= 200; n++ {
		total += tick(m, 2)
		want := math.Min(float64(n*2), 3+0.7*float64(n-1))
		if lag := want - float64(total); lag < -1e-9 || lag > 1-1e-9 {
			t.Fatalf("rate 0.7: %d ops granted after %d ticks, closed form %.2f", total, n, want)
		}
	}
}

// TestRefundRestoresNextGrant: refunding a tick's whole grant leaves
// the bucket as if that tick had asked for nothing, so every later
// grant matches a twin bucket that skipped the tick.
func TestRefundRestoresNextGrant(t *testing.T) {
	const d, refunded = 17, 3
	m, twin := bucketFor(t, 10, 35), bucketFor(t, 10, 35)
	for n := 1; n <= 12; n++ {
		if n == refunded {
			m.Refund(0, tick(m, d))
			tick(twin, 0)
			continue
		}
		if got, want := tick(m, d), tick(twin, d); got != want {
			t.Fatalf("tick %d: granted %d after the refund, want the twin's %d", n, got, want)
		}
	}
}

func TestDebtAndThrottleLatch(t *testing.T) {
	m := MustManager(Policy{Rate: 10, Burst: 10})
	if err := m.Bind([]int{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Tenant 0: 4 admitted, 6 pool-stalled -> debt 0.6.
	m.NoteAdmitted(0, 4)
	m.NoteStalled(0, 6)
	// Tenant 1: throttled by its bucket but fully served otherwise.
	m.NoteAdmitted(1, 10)
	m.NoteThrottled(1, 50)
	if m.MaxDebt() != 0 {
		t.Errorf("debt must only appear after EndEpoch, got %v", m.MaxDebt())
	}
	m.EndEpoch()
	if got := m.MaxDebt(); got != 0.6 {
		t.Errorf("MaxDebt = %v, want tenant 0's 0.6", got)
	}
	// Throttles alone never create debt.
	m2 := MustManager(Policy{Rate: 10, Burst: 10})
	if err := m2.Bind([]int{1}); err != nil {
		t.Fatal(err)
	}
	m2.NoteAdmitted(0, 10)
	m2.NoteThrottled(0, 50)
	m2.EndEpoch()
	if got := m2.MaxDebt(); got != 0 {
		t.Errorf("throttles must not create debt, MaxDebt = %v", got)
	}
	if m.ThrottledLastEpoch(0) || !m.ThrottledLastEpoch(1) {
		t.Errorf("throttle latch = %v, %v, want false, true",
			m.ThrottledLastEpoch(0), m.ThrottledLastEpoch(1))
	}
	// A clean epoch clears both the latch and the debt.
	m.EndEpoch()
	if m.MaxDebt() != 0 || m.ThrottledLastEpoch(1) {
		t.Errorf("clean epoch must clear debt and latch: debt=%v latch=%v",
			m.MaxDebt(), m.ThrottledLastEpoch(1))
	}
}

func TestMaxDebtThreshold(t *testing.T) {
	m := MustManager(Policy{Rate: 10, Burst: 10})
	if err := m.Bind([]int{1}); err != nil {
		t.Fatal(err)
	}
	m.NoteAdmitted(0, 8)
	m.NoteStalled(0, 2)
	m.EndEpoch()
	if got := m.MaxDebt(); got != 0 {
		t.Errorf("debt 0.2 below threshold %v must report 0, got %v", debtThreshold, got)
	}
	m.NoteAdmitted(0, 5)
	m.NoteStalled(0, 5)
	m.EndEpoch()
	if got := m.MaxDebt(); got != debtThreshold {
		t.Errorf("debt at the threshold must report, got %v", got)
	}
}

func TestTickCounters(t *testing.T) {
	m := MustManager(Policy{Rate: 10, Burst: 10})
	if err := m.Bind([]int{1}); err != nil {
		t.Fatal(err)
	}
	m.NoteAdmitted(0, 7)
	m.NoteThrottled(0, 3)
	if m.AdmittedTick(0) != 7 || m.ThrottledTick(0) != 3 {
		t.Fatalf("tick counters = %d, %d, want 7, 3", m.AdmittedTick(0), m.ThrottledTick(0))
	}
	m.BeginTick()
	if m.AdmittedTick(0) != 0 || m.ThrottledTick(0) != 0 {
		t.Fatal("BeginTick must reset tick counters")
	}
	if m.Admitted(0) != 7 || m.Throttled(0) != 3 {
		t.Fatalf("cumulative counters = %d, %d, want 7, 3", m.Admitted(0), m.Throttled(0))
	}
}

var sinkGrant int

// BenchmarkTake prices one Take at the benchmark's full_stack bucket
// (rate 1500, burst 3000) over four tenants, refilled once per 1024
// takes as a tick would. full asks 1 op per take, 256 per tenant and
// refill, so every take is a full grant. contended asks 16, 4096
// against a 1500 refill, so once a tick's first ~94 takes per tenant
// have drained the bucket the rest are throttled: the partial-grant
// path, reported as throttled/op.
func BenchmarkTake(b *testing.B) {
	for _, bc := range []struct {
		name string
		ask  int
	}{{"full", 1}, {"contended", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			m := MustManager(Policy{Rate: 1500, Burst: 3000})
			if err := m.Bind([]int{16, 16, 16, 16}); err != nil {
				b.Fatal(err)
			}
			throttled := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					m.BeginTick()
				}
				g := m.Take(i&3, bc.ask)
				if g < bc.ask {
					throttled++
				}
				sinkGrant += g
			}
			b.ReportMetric(float64(throttled)/float64(b.N), "throttled/op")
		})
	}
}
