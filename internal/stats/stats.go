// Package stats provides the statistical primitives used by the
// balancers and the experiment harness: dispersion measures (including
// the Coefficient of Variation at the heart of the Lunule IF model),
// percentiles for job-completion-time analysis, the logistic urgency
// function, and the linear-regression load predictor used by the
// migration initiator for importer-side future-load estimation.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the corrected (n-1 denominator) sample variance of
// xs, or 0 when fewer than two values are present. The corrected form
// matches Equation 1 of the paper.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the corrected sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoV returns the Coefficient of Variation of xs: the corrected sample
// standard deviation divided by the mean (Equation 1). It returns 0 for
// an empty slice or when the mean is 0 (an all-idle cluster is treated
// as perfectly balanced).
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// MaxCoV returns the theoretical maximum CoV of n non-negative values,
// which is sqrt(n), attained when a single value carries all the mass.
// The IF model normalizes CoV by this bound so IF lies in [0, 1].
func MaxCoV(n int) float64 {
	if n < 1 {
		return 0
	}
	return math.Sqrt(float64(n))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Logistic is the S-shaped function (1 + e^((1-2u)/s))^-1 used as the
// urgency term U in Equation 2 of the paper. u is the utilization of the
// most loaded server relative to the per-server capacity, and s in (0,1)
// controls the smoothness of the transition (the paper uses 0.2). The
// result rises from ~0 at u=0 toward ~1 at u=1, crossing 0.5 at u=0.5.
func Logistic(u, s float64) float64 {
	if s <= 0 {
		// Degenerate smoothness: a hard step at u = 0.5.
		if u >= 0.5 {
			return 1
		}
		return 0
	}
	return 1 / (1 + math.Exp((1-2*u)/s))
}

// Percentile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It returns
// 0 for an empty slice.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, q)
}

// Percentiles returns the q-quantiles of xs for every q in qs, using
// the same definition as Percentile but copying and sorting the sample
// only once. Callers that report several quantiles of one sample (p50,
// p80, p99 of the JCT distribution, say) should prefer it over repeated
// Percentile calls, each of which re-copies and re-sorts.
func Percentiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 || len(qs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = percentileSorted(sorted, q)
	}
	return out
}

func percentileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantileOfCounts returns the q-quantile of a sample given as bucket
// counts — counts[i] observations of the value value(i), with the
// values ascending in i. It uses the same
// linear-interpolation-between-closest-ranks definition as Percentile,
// so a histogram and the raw sample it was built from report identical
// quantiles. It returns 0 when the counts are empty or all zero.
func QuantileOfCounts(counts []int64, value func(int) float64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(n-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	vLo := valueAtRank(counts, value, lo)
	if lo == hi {
		return vLo
	}
	vHi := valueAtRank(counts, value, hi)
	frac := pos - float64(lo)
	return vLo*(1-frac) + vHi*frac
}

// valueAtRank returns the value of the rank-th observation (0-based)
// in the ascending sample the counts describe.
func valueAtRank(counts []int64, value func(int) float64, rank int64) float64 {
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return value(i)
		}
	}
	// Unreachable when rank < total; defensively report the top bucket.
	return value(len(counts) - 1)
}

// LinReg fits y = a + b*x by ordinary least squares over the provided
// points. The migration initiator uses it to extrapolate each MDS's
// historical per-epoch load (cld) into the next epoch's expected load
// (fld), which gates importer-role assignment in Algorithm 1.
type LinReg struct {
	Intercept float64
	Slope     float64
	n         int
}

// FitSeries fits a regression over ys taken at x = 0, 1, ..., len-1.
// With fewer than two points the fit is a constant (slope 0).
func FitSeries(ys []float64) LinReg {
	n := len(ys)
	if n == 0 {
		return LinReg{}
	}
	if n == 1 {
		return LinReg{Intercept: ys[0], n: 1}
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range ys {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	fn := float64(n)
	den := fn*sumXX - sumX*sumX
	if den == 0 {
		return LinReg{Intercept: sumY / fn, n: n}
	}
	slope := (fn*sumXY - sumX*sumY) / den
	intercept := (sumY - slope*sumX) / fn
	return LinReg{Intercept: intercept, Slope: slope, n: n}
}

// Predict evaluates the fit at x.
func (r LinReg) Predict(x float64) float64 {
	return r.Intercept + r.Slope*x
}

// PredictNext extrapolates one step past the fitted series, clamped at
// zero: negative load forecasts are meaningless.
func (r LinReg) PredictNext() float64 {
	v := r.Predict(float64(r.n))
	if v < 0 {
		return 0
	}
	return v
}

// Series is an append-only time series of (tick, value) samples.
type Series struct {
	Ticks  []int64
	Values []float64
}

// Append adds one sample.
func (s *Series) Append(tick int64, v float64) {
	s.Ticks = append(s.Ticks, tick)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// MeanValue returns the mean of the sample values.
func (s *Series) MeanValue() float64 { return Mean(s.Values) }

// MaxValue returns the maximum sample value.
func (s *Series) MaxValue() float64 { return Max(s.Values) }

// Last returns the final value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Tail returns the mean of the last k values (or all if fewer).
func (s *Series) Tail(k int) float64 {
	if k <= 0 || len(s.Values) == 0 {
		return 0
	}
	if k > len(s.Values) {
		k = len(s.Values)
	}
	return Mean(s.Values[len(s.Values)-k:])
}
