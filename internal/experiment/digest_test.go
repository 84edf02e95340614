package experiment

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// pinnedDigests holds, per experiment, the SHA-256 of its rendered
// result and sorted Values at Scale 0.25, Seed 42 and the MaxTicks the
// paper-shape tests above use. Recorded on the code before the registry
// became a cell table (PR 22); a change that is not meant to alter any
// table, series, note or value leaves every line untouched.
var pinnedDigests = map[string]string{
	"ablation":    "17117e11c626e4c220f2838e44c6c8fc9c3a326fb48b0d6a3b3483ef17e820fc",
	"batched":     "8edf220742f8d8fd4f93a357fe9876b0aa2c31ceddebbbb7b817b93fb4de538c",
	"fig12a":      "ba97c5639a4fef32acb9830cdfaf57f9713957acfe566c804a84b960f358c387",
	"fig12b":      "d907fcd3eb99b600c3ecabc943a89f55cf138418f19b98bf5028b2c1a31559e7",
	"elastic":     "b6ab68d4dd60d5b9fe2f5e049d45d015556e1c2603198a935ca0f1761a34f31d",
	"failover":    "eb1b87f4430e7a79b761de7587a1158bfc96bd6fc1e681b413d550d6daa06057",
	"hetero":      "d38ad5c84d8904187cb62c465e5b27d8a16aba60317dec5b935a692350f7afd6",
	"fig9":        "c12bac9bc2c06562767cf9f155350409afb2b563591a4709ca6bae5291d197e1",
	"fig10":       "2b21b9a1d43169529529b8e363f3e00915126156ba7eed604ba4ecb6093fef22",
	"fig11":       "48d0de7a771a4f0ae1ff01ce6f4e8b4027337987b46237c355e56893a066a70f",
	"noisy":       "013081314841b2049f7dc2b285c5a3661ae146117e616f920a42ff700bc54a3d",
	"readstorm":   "dd1c2cc2ecfe257120246aa242a72f0a298249e3e0b548271fad1860372ac475",
	"replication": "1f16373354e1a96fbb5d2c8c35995bdf3a0bb08f5348be01f2a2b6aeecbcfd46",
	"fig13a":      "b90230f4b6441a8c06fdbc4b8005f26b8c7335b8038ca8d7714bab1769cac041",
	"fig13b":      "51019494d578e32b088fa5cd41e57f080fe5163917c53823dbe1e9398158522b",
	"fig14":       "57999f7f45d069d23e98d26abb952b7ecdd9cc3d96f2b97e16c04134ee4531b0",
	"overhead":    "c535cffc07f6cc593a3c9e73c1cf1ce4261077b55e0ca79e0d8dc09a16c2ad72",
	"shareddir":   "b98027348f869830bafe88a6ae395c79b59e36de1ae15276d3be6f3b827cff1d",
	"table1":      "a88b502761a83862252be79d3f23cc9745c01b1d25d69b3e54d2c67ac0bc0b96",
	"fig2":        "3773181934cf771b525773f110a372d57e5c36939a79390c75c5ad41fd8d128a",
	"fig3":        "9f648e963c7fee9ce478baf62d62e72bdeb5325f3e95cf91bd8b6ed8c41eecb9",
	"fig4":        "f295319d685c298a5ced836c348c75dd0c27d7f456acd0ff144c7e05e7bca898",
	"fig6":        "685f6c4889cdddb043f79abd6ea2170ddb8e94c2a12260b0697d8645bcaabd77",
	"fig7":        "d691ece3764efdd6e870db9c0ec5e2a115ce3bc73a160f892aedf07bf4f7f2e4",
	"fig8":        "21286b77c0afcc632c35a79023df7b641531007c5894851e43ae6ab80c42d567",
}

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

// TestExperimentDigests pins all 25 experiments byte for byte, and
// checks the output depends neither on how many cells run at once nor
// on whether a scenario's run is shared: one pass runs each id alone on
// one core, the other hands RunAll every id of a tick budget on four,
// so fig6/fig7, fig9/fig10/fig11 and fig3/fig4 report on shared runs.
func TestExperimentDigests(t *testing.T) {
	if len(pinnedDigests) != len(IDs()) {
		t.Errorf("%d digests pinned for %d experiments", len(pinnedDigests), len(IDs()))
	}
	check := func(how string, res *Result) {
		if got := resultDigest(res); got != pinnedDigests[res.ID] {
			t.Errorf("%s: %s digest %s, pinned %s", how, res.ID, got, pinnedDigests[res.ID])
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The race detector makes every run ~10x slower and has nothing to
	// find on one core, so a race build keeps only the concurrent pass.
	for _, id := range IDs() {
		if raceBuild {
			break
		}
		res, err := Run(id, digestOpts(id))
		if err != nil {
			t.Fatal(err)
		}
		check("Run at GOMAXPROCS=1", res)
	}
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
			check("RunAll at GOMAXPROCS=4", res)
		}
	}
}
