// Command benchmark measures the metadata-cluster simulator end to end
// and layer by layer. See README.md for the workloads, the metrics and
// how to read the output; BENCHMARK.json at the repository root names
// this harness for the automated driver.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                       # all workloads, 5 repeats, traced runs
//	bash benchmark/run.sh -workload 'zipf|wide' # a subset
//	bash benchmark/run.sh -agree                # two sets, must agree within the bounds
//	bash benchmark/run.sh --workload zipf_read --seed 7 --seconds 20 --trace 0   # one driver run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
)

// nominalWindowSeconds is what one timed window takes on the 2-core
// reference host, and secondsRepeats the repeats made at each seed of
// a -seconds run; -seconds is turned into a seed count with them, so
// that the procedure is the same on every host and commit.
const (
	nominalWindowSeconds = 2.5
	secondsRepeats       = 2
)

func main() {
	var (
		o       suiteOpts
		pattern = flag.String("workload", "", "regular expression selecting workloads by full name (default: all)")
		seconds = flag.Float64("seconds", 0, "measure each workload for about this long: 2 repeats at each of max(2, seconds/5) seeds derived from -seed")
		agree   = flag.Bool("agree", false, "run two full sets back to back and fail if they disagree by more than the bounds")
	)
	flag.Uint64Var(&o.Seed, "seed", 42, "seed for cluster.Config.Seed: same seed, same simulated run")
	flag.IntVar(&o.Repeats, "repeats", 0, "timed repeats per workload and seed (default 5; 2 with -seconds)")
	flag.IntVar(&o.Trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (traced run + replay); -1: both")
	flag.StringVar(&o.OutDir, "out", "benchmark/out", "directory for trace-<workload>.json span files")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "directory for cpu-<workload>.pprof, taken on the traced run")
	flag.StringVar(&o.MemProfile, "memprofile", "", "directory for mem-<workload>.pprof, taken after the traced run")
	flag.Parse()
	if err := run(o, *pattern, *seconds, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o suiteOpts, pattern string, seconds float64, agree bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.Trace < -1 || o.Trace > 1 {
		return fmt.Errorf("-trace must be 0, 1 or -1, got %d", o.Trace)
	}
	if o.Trace == 0 && (o.CPUProfile != "" || o.MemProfile != "") {
		return fmt.Errorf("profiles are taken on the traced run; drop -trace 0")
	}
	if o.Repeats < 0 || seconds < 0 {
		return fmt.Errorf("-repeats and -seconds must not be negative")
	}
	selected, err := selectWorkloads(pattern)
	if err != nil {
		return err
	}
	o.Seeds = 1
	if seconds > 0 {
		// Host time varies from seed to seed as much as from run to
		// run, so a timed budget is spent on seeds first: two repeats at
		// each are what the digest check needs, and let a burst of
		// interference spoil one of them without moving the result.
		if o.Repeats == 0 {
			o.Repeats = secondsRepeats
		}
		// The per-layer metrics all come from the runs at -seed itself.
		if o.Trace != 1 {
			o.Seeds = max(2, int(math.Round(seconds/(nominalWindowSeconds*float64(o.Repeats)))))
		}
	}
	if o.Repeats == 0 {
		o.Repeats = 5
	}
	if o.Repeats < 2 {
		return fmt.Errorf("-repeats must be at least 2: the digest check compares repeats")
	}
	printHeader(os.Stdout, o, selected)

	results, err := runSuite(selected, o)
	if err != nil {
		return err
	}
	printReport(os.Stdout, results)
	failed := countProblems(os.Stdout, results)

	if agree {
		fmt.Println("\n== second set (-agree) ==")
		again, err := runSuite(selected, o)
		if err != nil {
			return err
		}
		printReport(os.Stdout, again)
		failed += countProblems(os.Stdout, again)
		failed += printAgreement(os.Stdout, results, again)
	}

	// The driver's contract: one selected workload and an explicit
	// -trace end in one JSON object on the last line.
	if len(results) == 1 && o.Trace >= 0 {
		line, err := json.Marshal(driverResult(results[0], o.Trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		return fmt.Errorf("%d correctness or agreement failures", failed)
	}
	return nil
}

func selectWorkloads(pattern string) ([]workloadDef, error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("-workload: %w", err)
	}
	var out []workloadDef
	for _, w := range workloads {
		if pattern == "" || re.MatchString(w.Name) {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workload %q matches none of the workloads", pattern)
	}
	return out, nil
}

// findWorkload returns the named workload, or nil.
func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// driverOutput is the last-line JSON object of a driver run.
type driverOutput struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult reports every end_to_end metric of BENCHMARK.json for
// -trace 0 and every per_layer metric for -trace 1. A metric confined
// to another workload reads 0.
func driverResult(wr *workloadResult, trace int) driverOutput {
	section := "end_to_end"
	if trace == 1 {
		section = "per_layer"
	}
	out := driverOutput{
		Correct:   wr.Failed == 0 && len(wr.Problems) == 0,
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   map[string]driverMetric{},
	}
	for _, m := range metricsIn(section) {
		out.Metrics[m.Name] = driverMetric{Value: wr.value(m), Unit: m.Unit}
	}
	return out
}

// value looks a metric up in whichever table holds it.
func (wr *workloadResult) value(m metricDef) float64 {
	if m.Kind == endToEnd {
		return wr.E2E[m.Name]
	}
	return wr.Layers[m.Name]
}
