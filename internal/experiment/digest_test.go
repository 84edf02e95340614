package experiment

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simtest"
)

// digestMaxTicks lists the experiments whose tests run with a longer
// tick budget than quick's 4000.
var digestMaxTicks = map[string]int64{"fig4": 8000, "failover": 8000, "elastic": 8000, "replication": 8000}

func digestOpts(id string) Options {
	opt := Options{Scale: 0.25, Seed: 42, MaxTicks: 4000}
	if mt, ok := digestMaxTicks[id]; ok {
		opt.MaxTicks = mt
	}
	return opt
}

// resultDigest hashes everything a Result reports: the rendered text
// and every value at full float precision.
func resultDigest(res *Result) string {
	keys := make([]string, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(res.String())
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(res.Values[k], 'g', -1, 64))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// TestExperimentDigests pins all 25 experiments byte for byte (one
// line per id in testdata/digests.txt), and checks the output depends
// neither on how many cells run at once nor on whether a scenario's run
// is shared: one pass runs each id alone on one core, the other hands
// RunAll every id of a tick budget on four, so fig6/fig7,
// fig9/fig10/fig11 and fig3/fig4 report on shared runs.
func TestExperimentDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The race detector makes every run ~10x slower and has nothing to
	// find on one core, so a race build keeps only the concurrent pass.
	if !raceBuild {
		t.Run("Run/GOMAXPROCS=1", func(t *testing.T) {
			for _, id := range IDs() {
				res, err := Run(id, digestOpts(id))
				if err != nil {
					t.Fatal(err)
				}
				simtest.Pin(t, id, resultDigest(res))
			}
		})
	}
	t.Run("RunAll/GOMAXPROCS=4", func(t *testing.T) {
		runtime.GOMAXPROCS(4)
		byBudget := map[int64][]string{}
		for _, id := range IDs() {
			mt := digestOpts(id).MaxTicks
			byBudget[mt] = append(byBudget[mt], id)
		}
		for _, ids := range byBudget {
			results, err := RunAll(ids, digestOpts(ids[0]))
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				simtest.Pin(t, res.ID, resultDigest(res))
			}
		}
	})
}
