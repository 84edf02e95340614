package core

import (
	"repro/internal/namespace"
	"repro/internal/stats"
)

// PlannerConfig parameterizes Algorithm 1. The participation gate L is
// planL, and the last historyEpochs epochs of each MDS's history feed
// the linear regression that predicts its next-epoch load (fld).
type PlannerConfig struct {
	// Cap is the per-epoch ceiling on any MDS's export or import
	// amount (load units), modelling the bounded migration throughput
	// of one epoch.
	Cap float64
	// DisableFutureLoad drops the importer-side fld test (ablation):
	// every below-average MDS imports its full gap.
	DisableFutureLoad bool
}

// Decision is one planned transfer: move Amount load units from the
// exporter to the importer.
type Decision struct {
	From   namespace.MDSID
	To     namespace.MDSID
	Amount float64
}

// Plan implements Algorithm 1 (role and migration amount
// determination). loads[i] is MDS i's current load (cld); histories[i]
// its per-epoch load history, used to predict the future load (fld).
// An MDS joins the plan only when its squared relative deviation
// (delta/avg)^2 exceeds planL.
// The returned decisions pair exporter demand with importer capacity,
// both capped by cfg.Cap.
func Plan(loads []float64, histories [][]float64, cfg PlannerConfig) []Decision {
	n := len(loads)
	if n < 2 {
		return nil
	}
	avg := stats.Mean(loads)
	if avg <= 0 {
		return nil
	}

	type export struct {
		id  namespace.MDSID
		eld float64
	}
	type imprt struct {
		id  namespace.MDSID
		ild float64
	}
	var exporters []export
	var importers []imprt

	for i := 0; i < n; i++ {
		delta := loads[i] - avg
		abs := delta
		if abs < 0 {
			abs = -abs
		}
		rel := abs / avg
		if rel*rel <= planL {
			continue
		}
		if delta > 0 {
			exporters = append(exporters, export{namespace.MDSID(i), minF(cfg.Cap, abs)})
			continue
		}
		// Importer candidacy: predict the next epoch's load; if the
		// organic growth already fills the gap, importing would
		// overshoot (the paper's lag-aware importer test).
		if cfg.DisableFutureLoad {
			importers = append(importers, imprt{namespace.MDSID(i), minF(cfg.Cap, abs)})
			continue
		}
		fld := predictNext(histories, i)
		growth := fld - loads[i]
		if growth < abs {
			ild := abs - growth
			if growth < 0 {
				// A shrinking MDS frees even more room, but never
				// beyond the cap.
				ild = abs
			}
			importers = append(importers, imprt{namespace.MDSID(i), minF(cfg.Cap, ild)})
		}
	}

	var plan []Decision
	for e := range exporters {
		for im := range importers {
			if exporters[e].eld <= 0 {
				break
			}
			if importers[im].ild <= 0 {
				continue
			}
			amount := minF(exporters[e].eld, importers[im].ild)
			plan = append(plan, Decision{
				From:   exporters[e].id,
				To:     importers[im].id,
				Amount: amount,
			})
			exporters[e].eld -= amount
			importers[im].ild -= amount
		}
	}
	return plan
}

func predictNext(histories [][]float64, i int) float64 {
	if i >= len(histories) || len(histories[i]) == 0 {
		return 0
	}
	h := histories[i]
	if len(h) > historyEpochs {
		h = h[len(h)-historyEpochs:]
	}
	return stats.FitSeries(h).PredictNext()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
