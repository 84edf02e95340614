package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestIFRange(t *testing.T) {
	m := IFModel{}
	f := func(raw []uint16, capRaw uint16) bool {
		loads := make([]float64, len(raw))
		for i, v := range raw {
			loads[i] = float64(v)
		}
		capacity := float64(capRaw) + 1
		r := m.Compute(loads, capacity)
		return r.IF >= 0 && r.IF <= 1+1e-9 && r.U >= 0 && r.U <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIFFullyImbalancedAtCapacity(t *testing.T) {
	// One MDS at full capacity, others idle: the worst case, IF ~ 1.
	r := IFModel{}.Compute([]float64{2000, 0, 0, 0, 0}, 2000)
	if r.IF < 0.95 {
		t.Fatalf("worst-case IF = %v, want ~1", r.IF)
	}
	if math.Abs(r.NormCoV-1) > 1e-9 {
		t.Fatalf("normalized CoV = %v, want 1", r.NormCoV)
	}
}

func TestIFBenignImbalanceTolerated(t *testing.T) {
	// Same skew shape but everything lightly loaded: the urgency term
	// must suppress IF (the paper's benign-imbalance case).
	light := IFModel{}.Compute([]float64{200, 0, 0, 0, 0}, 2000)
	heavy := IFModel{}.Compute([]float64{2000, 0, 0, 0, 0}, 2000)
	if light.NormCoV != heavy.NormCoV {
		t.Fatal("CoV should be identical for the same shape")
	}
	if light.IF > 0.1 {
		t.Fatalf("light-load IF = %v, want < 0.1 (benign)", light.IF)
	}
	if heavy.IF < 5*light.IF {
		t.Fatalf("urgency should separate harmful (%v) from benign (%v)", heavy.IF, light.IF)
	}
}

func TestIFBalancedIsZero(t *testing.T) {
	r := IFModel{}.Compute([]float64{1500, 1500, 1500, 1500}, 2000)
	if r.IF != 0 {
		t.Fatalf("balanced IF = %v", r.IF)
	}
}

func TestIFDegenerateInputs(t *testing.T) {
	m := IFModel{}
	if r := m.Compute(nil, 2000); r.IF != 0 {
		t.Fatal("empty loads")
	}
	if r := m.Compute([]float64{100}, 2000); r.IF != 0 {
		t.Fatal("single MDS")
	}
	if r := m.Compute([]float64{100, 0}, 0); r.IF != 0 {
		t.Fatal("zero capacity")
	}
	if r := m.Compute([]float64{0, 0, 0}, 2000); r.IF != 0 {
		t.Fatal("idle cluster")
	}
}

func TestIFUtilizationClamped(t *testing.T) {
	// Loads can transiently exceed the theoretical capacity (bursts);
	// utilization clamps at 1, so the urgency is that of a rank exactly
	// at capacity, not Logistic(2.5).
	r := IFModel{}.Compute([]float64{5000, 0}, 2000)
	if want := stats.Logistic(1, smoothness); r.U != want {
		t.Fatalf("urgency = %v, want %v (utilization clamped to 1)", r.U, want)
	}
}

func TestIFMonotoneInSkew(t *testing.T) {
	// Shifting load from the light MDS to the heavy one (total fixed)
	// must not decrease IF.
	prev := -1.0
	for d := 0.0; d <= 900; d += 100 {
		r := IFModel{}.Compute([]float64{1000 + d, 1000 - d, 1000, 1000}, 2000)
		if r.IF < prev-1e-9 {
			t.Fatalf("IF decreased with more skew at d=%v", d)
		}
		prev = r.IF
	}
}

// TestIFSmoothnessDefault: the urgency term is Equation 2's logistic
// at the paper's S = 0.2.
func TestIFSmoothnessDefault(t *testing.T) {
	r := IFModel{}.Compute([]float64{1000, 0}, 2000)
	if smoothness != 0.2 || r.U != stats.Logistic(0.5, 0.2) {
		t.Fatalf("urgency %v at u=0.5, want the logistic at S=0.2", r.U)
	}
}
