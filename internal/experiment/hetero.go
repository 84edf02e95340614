package experiment

import "repro/internal/workload"

// The hetero experiment probes the limit the paper's footnote
// acknowledges: the IF model assumes every MDS delivers the same
// capacity C. Two scenarios beside the uniform baseline:
//
//  1. a static cluster where one MDS has half the capacity — the
//     balancer aims for even *loads*, so the slow server saturates and
//     drags the tail;
//  2. a mid-run degradation (one MDS's capacity halves at a fixed
//     tick) — the balancers see the degraded server's served load drop
//     and must not mistake it for an idle importer.
var expHetero = entry{
	id: "hetero", title: "Extension: heterogeneous capacity and degradation injection",
	scenario: &scenario{func(opt Options) []cell {
		zipf := func() workload.Generator {
			return workload.NewZipf(workload.ZipfConfig{OpsPerClient: scaledMin(30000, opt.Scale, 20000)})
		}
		// halveRank2At halves rank 2's capacity from the given tick on:
		// tick 0 is a slow MDS, a later tick a degradation.
		halveRank2At := func(tick int64) func(*run, int64) {
			return func(r *run, maxTicks int64) {
				r.ScheduleCapacity(tick, 2, 1000)
				r.RunUntilDone(maxTicks)
			}
		}
		var cells []cell
		for _, sc := range []struct {
			name  string
			drive func(*run, int64)
		}{
			{"uniform (baseline)", nil},
			{"one slow MDS (half capacity)", halveRank2At(0)},
			{"mid-run degradation", halveRank2At(100)},
		} {
			for _, b := range []string{"Vanilla", "Lunule"} {
				cells = append(cells, cell{labels: []string{sc.name, b}, key: sc.name + "/" + b, bal: b, gen: zipf,
					drive: sc.drive})
			}
		}
		return cells
	}},
	cols: []column[*run]{label("scenario", 0), label("balancer", 1), colMeanIOPS,
		num("JCT p99", ".jct99", fi, jct(0.99)),
		num("slow-MDS stalls", ".stalls", fi, func(r *run) float64 { return float64(r.Servers()[2].Stalls()) })},
	notes: []string{
		"the IF model's uniform-C assumption makes a slow MDS a persistent stall point (the paper calls heterogeneity orthogonal)",
		"runs must still complete with no lost operations — degradation is absorbed, not fatal"},
}
