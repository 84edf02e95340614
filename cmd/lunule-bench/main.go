// Command lunule-bench regenerates the paper's tables and figures on
// the simulated cluster. Run it with no flags to execute the full
// evaluation, or name specific experiments:
//
//	lunule-bench -list
//	lunule-bench -exp fig6,fig7 -scale 2
//
// Each result is followed by a "(id in elapsed)" line and the run ends
// with a "(total in ...)" line naming the host's cores; those lines are
// the only output that differs between two runs of the same flags
// (strip them with grep -v '^(.* in .*)$'). Figures that share one
// scenario run (fig6/fig7, fig9/fig10/fig11, fig3/fig4) each report
// that run's elapsed time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiment"
)

// jsonResult is the machine-readable form of one experiment.
type jsonResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Values  map[string]float64 `json:"values"`
	Notes   []string           `json:"notes,omitempty"`
	Seeds   int                `json:"seeds,omitempty"`
	Std     map[string]float64 `json:"std,omitempty"`
	Elapsed string             `json:"elapsed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseIDs resolves -exp against the registry: every id known, none
// blank, none listed twice.
func parseIDs(exp string) ([]string, error) {
	if exp == "all" {
		return experiment.IDs(), nil
	}
	var ids []string
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, fmt.Errorf("-exp %q has a blank id", exp)
		}
		if err := experiment.Known("exp", id, experiment.IDs()); err != nil {
			return nil, err
		}
		if slices.Contains(ids, id) {
			return nil, fmt.Errorf("-exp %q lists %s twice", exp, id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// run is the command with its streams and exit code made explicit, so
// the flag checks are testable. Nothing is simulated before every flag
// has been checked.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lunule-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		exp      = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale    = fs.Float64("scale", 1.0, "workload scale factor (1.0 = seconds per experiment)")
		seed     = fs.Uint64("seed", 42, "random seed")
		ticks    = fs.Int64("maxticks", 6000, "per-run simulated-tick budget (0 = the default)")
		seeds    = fs.Int("seeds", 1, "run each experiment this many times (seed, seed+1, ...) and report mean ± std")
		auditOn  = fs.Bool("audit", false, "attach the state auditor to every run; any invariant violation fails the experiment")
		jsonPath = fs.String("json", "", "also write machine-readable results to this file")
		mdPath   = fs.String("md", "", "write a markdown report to this file instead of stdout tables (not with -seeds or -json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "error: %v\n", err)
		return 1
	}

	if *list {
		titles := experiment.Titles()
		for _, id := range experiment.IDs() {
			fmt.Fprintf(stdout, "%-9s %s\n", id, titles[id])
		}
		return 0
	}
	ids, err := parseIDs(*exp)
	if err == nil {
		err = experiment.CheckScale(*scale)
	}
	switch {
	case err != nil:
		return fail(err)
	case *ticks < 0:
		return fail(fmt.Errorf("-maxticks must be >= 0, got %d", *ticks))
	case *seeds < 1:
		return fail(fmt.Errorf("-seeds must be >= 1, got %d", *seeds))
	case *mdPath != "" && (*seeds > 1 || *jsonPath != ""):
		return fail(fmt.Errorf("-md reports one run per experiment as markdown only; it cannot be combined with -seeds or -json"))
	}
	opt := experiment.Options{Seed: *seed, Scale: *scale, MaxTicks: *ticks, Audit: *auditOn}

	start := time.Now()
	var runErr error
	var jsonOut []jsonResult
	emit := func(text string, jr jsonResult, elapsed time.Duration) {
		jr.Elapsed = elapsed.Round(time.Millisecond).String()
		jsonOut = append(jsonOut, jr)
		fmt.Fprintf(stdout, "%s(%s in %s)\n\n", text, jr.ID, jr.Elapsed)
	}
	switch {
	case *mdPath != "":
		f, err := os.Create(*mdPath)
		if err != nil {
			return fail(err)
		}
		runErr = experiment.WriteMarkdownReport(f, ids, opt)
		if err := f.Close(); runErr == nil {
			runErr = err
		}
		if runErr == nil {
			fmt.Fprintf(stdout, "markdown report written to %s\n", *mdPath)
		}
	case *seeds > 1:
		for _, id := range ids {
			began := time.Now()
			var sw *experiment.Sweep
			if sw, runErr = experiment.RunSeeds(id, opt, *seeds); runErr != nil {
				break
			}
			emit(sw.String(), jsonResult{ID: sw.ID, Title: sw.Title, Values: sw.Mean, Std: sw.Std,
				Seeds: sw.Seeds, Notes: sw.Last.Notes}, time.Since(began))
		}
	default:
		var results []*experiment.Result
		results, runErr = experiment.RunAll(ids, opt)
		for _, res := range results {
			emit(res.String(), jsonResult{ID: res.ID, Title: res.Title, Values: res.Values, Notes: res.Notes}, res.Elapsed)
		}
	}
	code := 0
	if runErr != nil {
		code = fail(runErr)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(jsonOut, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			code = fail(fmt.Errorf("writing json: %w", err))
		} else {
			fmt.Fprintf(stdout, "machine-readable results written to %s\n", *jsonPath)
		}
	}
	fmt.Fprintf(stdout, "(total in %s: NumCPU %d, GOMAXPROCS %d)\n",
		time.Since(start).Round(time.Millisecond), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	return code
}
