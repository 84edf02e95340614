package core

import (
	"testing"
	"testing/quick"

	"repro/internal/namespace"
)

func defaultPlanCfg() PlannerConfig {
	return PlannerConfig{Cap: 1000}
}

func TestPlanSingleHotExporter(t *testing.T) {
	loads := []float64{2000, 100, 100, 100, 100}
	hist := make([][]float64, 5)
	for i, l := range loads {
		hist[i] = []float64{l, l}
	}
	plan := Plan(loads, hist, defaultPlanCfg())
	if len(plan) == 0 {
		t.Fatal("expected a migration plan")
	}
	totalOut := 0.0
	for _, d := range plan {
		if d.From != 0 {
			t.Fatalf("unexpected exporter %d", d.From)
		}
		if d.To == 0 {
			t.Fatal("exporter must not import from itself")
		}
		if d.Amount <= 0 {
			t.Fatal("non-positive amount")
		}
		totalOut += d.Amount
	}
	// Export demand is capped at Cap.
	if totalOut > 1000+1e-9 {
		t.Fatalf("total export %v exceeds Cap", totalOut)
	}
}

func TestPlanBalancedNoops(t *testing.T) {
	loads := []float64{500, 510, 495, 505}
	hist := make([][]float64, 4)
	for i, l := range loads {
		hist[i] = []float64{l}
	}
	if plan := Plan(loads, hist, defaultPlanCfg()); len(plan) != 0 {
		t.Fatalf("balanced cluster produced plan: %v", plan)
	}
}

func TestPlanLGateFiltersSmallDeviations(t *testing.T) {
	// 15% above average: (0.15)^2 = 0.0225 < L=0.05 -> no exporter.
	loads := []float64{1150, 1000, 1000, 1000, 850}
	hist := make([][]float64, 5)
	for i, l := range loads {
		hist[i] = []float64{l}
	}
	// avg = 1000; deviations 150/1000 = 0.15 -> squared 0.0225 < 0.05.
	if plan := Plan(loads, hist, defaultPlanCfg()); len(plan) != 0 {
		t.Fatalf("sub-threshold deviations should not plan, got %v", plan)
	}
	// 25% deviations: 0.0625 > L, so they plan.
	loads = []float64{1250, 1000, 1000, 1000, 750}
	for i, l := range loads {
		hist[i] = []float64{l}
	}
	if plan := Plan(loads, hist, defaultPlanCfg()); len(plan) == 0 {
		t.Fatal("deviations above L should plan")
	}
}

func TestPlanImporterFutureLoadGate(t *testing.T) {
	// MDS 1 is light now but its history is rising steeply: its own
	// growth covers the gap, so it must not import.
	loads := []float64{2000, 400, 0}
	hist := [][]float64{
		{2000, 2000, 2000},
		{0, 100, 400}, // rising: fld ~ 650, growth 250... gap is 400 avg=800 -> delta=400, growth 250<400 -> imports a bit
		{0, 0, 0},     // flat: full importer
	}
	plan := Plan(loads, hist, defaultPlanCfg())
	var to1, to2 float64
	for _, d := range plan {
		switch d.To {
		case 1:
			to1 += d.Amount
		case 2:
			to2 += d.Amount
		}
	}
	if to2 <= 0 {
		t.Fatal("idle flat MDS must import")
	}
	if to1 >= to2 {
		t.Fatalf("rising MDS should import less than flat idle one (%v vs %v)", to1, to2)
	}
}

func TestPlanImporterFullyCoveredByGrowth(t *testing.T) {
	// The light MDS's predicted growth exceeds its gap entirely.
	loads := []float64{1200, 800}
	hist := [][]float64{
		{1200, 1200, 1200},
		{0, 400, 800}, // fld ~ 1200, growth 400 >= gap 200
	}
	if plan := Plan(loads, hist, defaultPlanCfg()); len(plan) != 0 {
		t.Fatalf("importer covered by organic growth should not import: %v", plan)
	}
}

func TestPlanConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 || len(raw) > 16 {
			return true
		}
		loads := make([]float64, len(raw))
		hist := make([][]float64, len(raw))
		for i, v := range raw {
			loads[i] = float64(v)
			hist[i] = []float64{loads[i], loads[i]}
		}
		cfg := defaultPlanCfg()
		plan := Plan(loads, hist, cfg)
		exported := make(map[namespace.MDSID]float64)
		imported := make(map[namespace.MDSID]float64)
		for _, d := range plan {
			if d.Amount <= 0 || d.From == d.To {
				return false
			}
			exported[d.From] += d.Amount
			imported[d.To] += d.Amount
		}
		for id, v := range exported {
			if v > cfg.Cap+1e-6 {
				return false
			}
			if _, alsoImports := imported[id]; alsoImports {
				return false // a rank cannot be exporter and importer at once
			}
		}
		for _, v := range imported {
			if v > cfg.Cap+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanDegenerate(t *testing.T) {
	if Plan(nil, nil, defaultPlanCfg()) != nil {
		t.Fatal("nil loads")
	}
	if Plan([]float64{100}, [][]float64{{100}}, defaultPlanCfg()) != nil {
		t.Fatal("single MDS")
	}
	if Plan([]float64{0, 0}, [][]float64{{0}, {0}}, defaultPlanCfg()) != nil {
		t.Fatal("idle cluster")
	}
}
