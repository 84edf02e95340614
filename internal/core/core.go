// Package core implements the paper's contribution: the Lunule
// metadata load balancer. It comprises the Imbalance Factor model
// (Equations 1-3), the role-and-amount planner (Algorithm 1), the
// workload-aware pattern analyzer (alpha/beta locality factors and the
// migration index of Equation 4), and the three-path subtree selector.
package core

// The paper's parameters, each defined once. They are constants, not
// configuration: the evaluation never varies them, and what the
// ablation experiment does vary is Config. The fractions are typed so
// that expressions over them round exactly as float64 arithmetic does.
const (
	// threshold is the IF value at or above which re-balance triggers.
	threshold float64 = 0.10
	// smoothness is the urgency knob S of Equation 2.
	smoothness float64 = 0.2
	// planL gates per-MDS plan participation in Algorithm 1: an MDS
	// joins only when (delta/avg)^2 exceeds it.
	planL float64 = 0.05
	// capFraction sizes Algorithm 1's per-epoch export/import ceiling
	// as a fraction of the single-MDS capacity C.
	capFraction float64 = 1.0
	// historyEpochs feeds the importer-side future-load regression.
	historyEpochs = 8
	// windows is the pattern analyzer's cutting-window depth N.
	windows = 5
	// siblingProb is the probability mass of the sibling-correlation
	// rule (the paper's "certain probability").
	siblingProb float64 = 0.5
	// tolerance is the selector's acceptable relative mismatch between
	// a pick and the amount (the paper allows a 10% difference).
	tolerance float64 = 0.10
	// maxFragSplits bounds repeated dirfrag splitting of one pick.
	maxFragSplits = 8
	// concentrationMin is the fraction of a region's migration index
	// its child directories must capture for the region to be refined
	// into them rather than fragment-split.
	concentrationMin float64 = 0.7
	// maxPicks bounds how many subtrees one decision may export.
	maxPicks = 16
	// dustFraction drops candidates below this fraction of the amount.
	dustFraction float64 = 0.05
	// candidateLimit bounds candidate enumeration.
	candidateLimit = 128
)
