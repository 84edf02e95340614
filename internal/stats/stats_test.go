package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSum(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Fatalf("Sum = %v", Sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestVarianceCorrected(t *testing.T) {
	// Sample variance of {2, 4, 4, 4, 5, 5, 7, 9} with n-1 denominator
	// is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Variance(xs), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-element variance != 0")
	}
}

func TestCoVBasics(t *testing.T) {
	if CoV([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("CoV of constant series != 0")
	}
	if CoV([]float64{0, 0, 0}) != 0 {
		t.Fatal("CoV of zero series != 0")
	}
	// One busy server out of n idle: CoV approaches sqrt(n).
	xs := []float64{100, 0, 0, 0, 0}
	cov := CoV(xs)
	if !almost(cov, math.Sqrt(5), 1e-9) {
		t.Fatalf("fully skewed CoV = %v, want sqrt(5) = %v", cov, math.Sqrt(5))
	}
}

func TestCoVBoundedByMaxCoV(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			xs[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return CoV(xs) == 0
		}
		// For non-negative data, CoV <= sqrt(n) with equality only in
		// the single-spike case. Allow tiny floating slack.
		return CoV(xs) <= MaxCoV(len(xs))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoVScaleInvariant(t *testing.T) {
	xs := []float64{1, 3, 9, 2}
	ys := make([]float64, len(xs))
	for i := range xs {
		ys[i] = xs[i] * 1000
	}
	if !almost(CoV(xs), CoV(ys), 1e-12) {
		t.Fatalf("CoV not scale invariant: %v vs %v", CoV(xs), CoV(ys))
	}
}

func TestLogisticShape(t *testing.T) {
	s := 0.2
	if !almost(Logistic(0.5, s), 0.5, 1e-12) {
		t.Fatalf("Logistic(0.5) = %v", Logistic(0.5, s))
	}
	if Logistic(0, s) > 0.01 {
		t.Fatalf("Logistic(0) = %v, want ~0", Logistic(0, s))
	}
	if Logistic(1, s) < 0.99 {
		t.Fatalf("Logistic(1) = %v, want ~1", Logistic(1, s))
	}
	// Monotone increasing in u.
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.05 {
		v := Logistic(u, s)
		if v <= prev {
			t.Fatalf("Logistic not increasing at u=%v", u)
		}
		prev = v
	}
}

func TestLogisticSmoothnessKnob(t *testing.T) {
	// Smaller s means a sharper transition: at u=0.6 a small s should
	// be closer to 1 than a large s.
	if Logistic(0.6, 0.05) <= Logistic(0.6, 0.5) {
		t.Fatal("smaller smoothness did not sharpen the curve")
	}
	if Logistic(0.6, 0) != 1 || Logistic(0.4, 0) != 0 {
		t.Fatal("degenerate s=0 should be a hard step")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if Percentile(xs, 0) != 15 {
		t.Fatal("p0")
	}
	if Percentile(xs, 1) != 50 {
		t.Fatal("p100")
	}
	if !almost(Percentile(xs, 0.5), 35, 1e-12) {
		t.Fatalf("median = %v", Percentile(xs, 0.5))
	}
	if !almost(Percentile(xs, 0.25), 20, 1e-12) {
		t.Fatalf("p25 = %v", Percentile(xs, 0.25))
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestPercentileWithinBounds(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q := float64(qRaw) / 255
		p := Percentile(xs, q)
		return p >= slices.Min(xs)-1e-9 && p <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFitSeriesExactLine(t *testing.T) {
	r := FitSeries([]float64{3, 5, 7, 9})
	if !almost(r.Slope, 2, 1e-12) || !almost(r.Intercept, 3, 1e-12) {
		t.Fatalf("fit %v + %v x", r.Intercept, r.Slope)
	}
	if !almost(r.PredictNext(), 11, 1e-12) {
		t.Fatalf("PredictNext = %v", r.PredictNext())
	}
}

func TestFitSeriesConstant(t *testing.T) {
	r := FitSeries([]float64{4, 4, 4})
	if !almost(r.Slope, 0, 1e-12) || !almost(r.PredictNext(), 4, 1e-12) {
		t.Fatalf("constant fit: %v + %vx", r.Intercept, r.Slope)
	}
}

func TestFitSeriesClampNegative(t *testing.T) {
	r := FitSeries([]float64{9, 6, 3})
	if r.PredictNext() != 0 {
		t.Fatalf("declining load should clamp at 0, got %v", r.PredictNext())
	}
}

func TestFitSeriesDegenerate(t *testing.T) {
	if FitSeries(nil).PredictNext() != 0 {
		t.Fatal("empty fit")
	}
	r := FitSeries([]float64{7})
	if !almost(r.PredictNext(), 7, 1e-12) {
		t.Fatal("single point fit should extrapolate constant")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(0, 1)
	s.Append(10, 3)
	s.Append(20, 5)
	if s.Len() != 3 || s.Last() != 5 {
		t.Fatal("series basics")
	}
	if !almost(s.MeanValue(), 3, 1e-12) || s.MaxValue() != 5 {
		t.Fatal("series stats")
	}
	if !almost(s.Tail(2), 4, 1e-12) {
		t.Fatalf("Tail(2) = %v", s.Tail(2))
	}
	if !almost(s.Tail(99), 3, 1e-12) {
		t.Fatal("Tail larger than series should use all values")
	}
}

// TestMinMax checks the sample extremes: Percentile at 0 and Max.
func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Percentile(xs, 0) != -1 || Max(xs) != 7 {
		t.Fatal("min/max")
	}
	if Percentile(nil, 0) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max")
	}
}

func TestQuantileOfCountsMatchesPercentile(t *testing.T) {
	// Bucket i holds value i+1 (the latency-histogram shape).
	counts := []int64{5, 0, 3, 12, 0, 0, 7, 1}
	var raw []float64
	for i, c := range counts {
		for j := int64(0); j < c; j++ {
			raw = append(raw, float64(i+1))
		}
	}
	value := func(i int) float64 { return float64(i + 1) }
	for _, q := range []float64{-1, 0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
		got := QuantileOfCounts(counts, value, q)
		want := Percentile(raw, q)
		if got != want {
			t.Fatalf("q=%v: counts %v != percentile %v", q, got, want)
		}
	}
}

func TestQuantileOfCountsEmpty(t *testing.T) {
	if got := QuantileOfCounts(nil, func(int) float64 { return 1 }, 0.5); got != 0 {
		t.Fatalf("empty counts: %v", got)
	}
	if got := QuantileOfCounts([]int64{0, 0}, func(int) float64 { return 1 }, 0.5); got != 0 {
		t.Fatalf("all-zero counts: %v", got)
	}
}
