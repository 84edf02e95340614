package experiment

import (
	"math"

	"repro/internal/workload"
)

// The shareddir experiment stresses the hardest case for
// subtree-granular balancing: every client creates into one shared
// directory, so the only way to parallelize is to split that
// directory's fragments across MDSs. Policies that move whole
// directories (the heat-based baselines) can only relocate the
// bottleneck; Lunule's selector splits it.
var expSharedDir = entry{
	id: "shareddir", title: "Extension: shared-directory create storm (the GIGA+ scenario)",
	scenario: grid([]string{"SharedDir"}, []string{"Vanilla", "GreedySpill", "Lunule"}, byBalancer, cell{},
		func(_ string, opt Options) workload.Generator {
			return workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: scaledMin(15000, opt.Scale, 10000)})
		}),
	cols: []column[*run]{label("balancer", 1), colMeanIOPS, colJCT50,
		num("dirfrag entries", ".frags", fi, func(r *run) float64 { // the shared dir's fragment entries
			shared, err := r.Tree().Lookup("/mdshared/dir")
			if err != nil {
				return math.NaN()
			}
			return float64(len(r.Partition().EntriesAt(shared.Ino)))
		}),
		shown("migrated", fi, migrated)},
	ratios: [][3]string{{"lunule-vs-vanilla", "Lunule.mean", "Vanilla.mean"}},
	notes:  []string{"only dirfrag splitting parallelizes a single hot directory; whole-directory policies just relocate it"},
}
