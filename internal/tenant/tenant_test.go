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
