package core_test

import (
	"fmt"

	"repro/internal/core"
)

// ExampleIFModel_Compute evaluates the Imbalance Factor of a cluster
// where one MDS at full capacity carries everything (harmful — IF near
// 1) and of the same skew at one tenth of the load (benign — the
// urgency term suppresses IF).
func ExampleIFModel_Compute() {
	m := core.IFModel{}
	harmful := m.Compute([]float64{2000, 0, 0, 0, 0}, 2000)
	benign := m.Compute([]float64{200, 0, 0, 0, 0}, 2000)
	fmt.Printf("harmful IF %.2f (urgency %.2f)\n", harmful.IF, harmful.U)
	fmt.Printf("benign  IF %.2f (urgency %.2f)\n", benign.IF, benign.U)
	// Output:
	// harmful IF 0.99 (urgency 0.99)
	// benign  IF 0.02 (urgency 0.02)
}

// ExamplePlan shows Algorithm 1 pairing one overloaded exporter with
// the idle importers.
func ExamplePlan() {
	loads := []float64{1800, 100, 100}
	histories := [][]float64{{1800, 1800}, {100, 100}, {100, 100}}
	plan := core.Plan(loads, histories, core.PlannerConfig{Cap: 2000})
	for _, d := range plan {
		fmt.Printf("move %.0f ops/s from MDS-%d to MDS-%d\n", d.Amount, d.From, d.To)
	}
	// Output:
	// move 567 ops/s from MDS-0 to MDS-1
	// move 567 ops/s from MDS-0 to MDS-2
}
