package experiment

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Sweep is the aggregate of one experiment run across several seeds:
// every numeric Value becomes a mean with a sample standard deviation,
// so headline factors can be reported with their run-to-run spread.
type Sweep struct {
	ID    string
	Title string
	Seeds int
	// Mean and Std index the same keys as Result.Values.
	Mean map[string]float64
	Std  map[string]float64
	// Last keeps the final seed's full result (tables/series).
	Last *Result
}

// RunSeeds executes the experiment once per seed (opt.Seed, opt.Seed+1,
// ...) and aggregates the Values maps.
func RunSeeds(id string, opt Options, seeds int) (*Sweep, error) {
	seeds = max(seeds, 1)
	opt.defaults()
	acc := make(map[string][]float64)
	var last *Result
	for s := 0; s < seeds; s++ {
		o := opt
		o.Seed = opt.Seed + uint64(s)
		res, err := Run(id, o)
		if err != nil {
			return nil, err
		}
		for k, v := range res.Values {
			acc[k] = append(acc[k], v)
		}
		last = res
	}
	sw := &Sweep{ID: id, Title: last.Title, Seeds: seeds, Last: last,
		Mean: make(map[string]float64, len(acc)), Std: make(map[string]float64, len(acc))}
	for k, vs := range acc {
		sw.Mean[k] = stats.Mean(vs)
		sw.Std[k] = stats.StdDev(vs)
	}
	return sw, nil
}

// String renders the sweep as "key = mean ± std" lines in sorted order.
func (s *Sweep) String() string {
	keys := make([]string, 0, len(s.Mean))
	for k := range s.Mean {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("=== %s: %s (%d seeds) ===\n", s.ID, s.Title, s.Seeds)
	for _, k := range keys {
		out += fmt.Sprintf("%-40s %12.3f ± %.3f\n", k, s.Mean[k], s.Std[k])
	}
	return out
}
