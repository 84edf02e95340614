package core

import (
	"repro/internal/stats"
)

// IFModel computes the cluster Imbalance Factor from per-MDS loads,
// with the paper's urgency smoothness S = smoothness.
type IFModel struct{}

// IFResult breaks the Imbalance Factor into its components.
type IFResult struct {
	// IF is the Imbalance Factor in [0, 1] (Equation 3).
	IF float64
	// CoV is the raw Coefficient of Variation of the loads (Eq. 1).
	CoV float64
	// NormCoV is CoV normalized by its sqrt(n) upper bound.
	NormCoV float64
	// U is the urgency term (Equation 2).
	U float64
	// Utilization is u = l_max / C.
	Utilization float64
}

// Compute evaluates the model for the given per-MDS loads (ops/sec)
// and the theoretical single-MDS capacity C. A cluster with fewer than
// two MDSs, zero capacity, or zero load is perfectly balanced (IF 0).
func (IFModel) Compute(loads []float64, capacity float64) IFResult {
	n := len(loads)
	if n < 2 || capacity <= 0 {
		return IFResult{}
	}
	cov := stats.CoV(loads)
	norm := cov / stats.MaxCoV(n)
	u := stats.Max(loads) / capacity
	if u > 1 {
		u = 1
	}
	urgency := stats.Logistic(u, smoothness)
	return IFResult{
		IF:          norm * urgency,
		CoV:         cov,
		NormCoV:     norm,
		U:           urgency,
		Utilization: u,
	}
}
