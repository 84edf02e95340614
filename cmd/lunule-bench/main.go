// Command lunule-bench regenerates the paper's tables and figures on
// the simulated cluster. Run it with no flags to execute the full
// evaluation, or name specific experiments:
//
//	lunule-bench -list
//	lunule-bench -exp fig6,fig7 -scale 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
)

// parseWorkersAxis turns an axis flag ("1,2,4,8" worker counts or
// "8,32" batch sizes) into a sorted, deduplicated list of positive
// integers.
func parseWorkersAxis(s string) ([]int, error) {
	seen := map[int]bool{}
	var axis []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad axis entry %q: want positive integers", part)
		}
		if !seen[w] {
			seen[w] = true
			axis = append(axis, w)
		}
	}
	sort.Ints(axis)
	if len(axis) == 0 {
		axis = []int{1}
	}
	return axis, nil
}

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
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = seconds per experiment)")
		seed     = flag.Uint64("seed", 42, "random seed")
		ticks    = flag.Int64("maxticks", 6000, "per-run simulated-tick budget")
		seeds    = flag.Int("seeds", 1, "run each experiment this many times (seed, seed+1, ...) and report mean ± std")
		auditOn  = flag.Bool("audit", false, "attach the state auditor to every run; any invariant violation fails the experiment")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		mdPath   = flag.String("md", "", "write a markdown report to this file instead of stdout tables")

		tickbench  = flag.Bool("tickbench", false, "run the tick-loop micro-benchmark matrix instead of the experiments")
		tbOut      = flag.String("tickbench-out", "", "write the tickbench JSON report to this file (the BENCH_tickbench.json format)")
		tbBaseline = flag.String("tickbench-baseline", "", "diff tickbench results against this checked-in JSON baseline")
		tbTicks    = flag.Int64("tickbench-ticks", 300, "measured ticks per tickbench case (after a 100-tick warmup)")
		tbWorkers  = flag.String("tickbench-workers", "1,2,4,8",
			"comma-separated worker counts for the parallel-engine tickbench cells")
		tbBatch = flag.String("tickbench-batch", "8,32",
			"comma-separated batch sizes for the write-back tickbench cells")
		tbMaxRegress = flag.Float64("tickbench-max-alloc-regress", 0.10,
			"fail when any case's allocs/tick exceeds the baseline by more than this fraction (negative disables)")
	)
	flag.Parse()

	if *tickbench {
		workersAxis, err := parseWorkersAxis(*tbWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		batchAxis, err := parseWorkersAxis(*tbBatch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := runTickBench(os.Stdout, *tbTicks, workersAxis, batchAxis, *tbOut, *tbBaseline, *tbMaxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	titles := experiment.Titles()
	if *list {
		for _, id := range experiment.IDs() {
			fmt.Printf("%-9s %s\n", id, titles[id])
		}
		return
	}

	ids := experiment.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	opt := experiment.Options{Seed: *seed, Scale: *scale, MaxTicks: *ticks, Audit: *auditOn}

	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := experiment.WriteMarkdownReport(f, ids, opt); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("markdown report written to %s\n", *mdPath)
		return
	}

	failed := 0
	var jsonOut []jsonResult
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		if *seeds > 1 {
			sw, err := experiment.RunSeeds(id, opt, *seeds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				failed++
				continue
			}
			fmt.Print(sw.String())
			jsonOut = append(jsonOut, jsonResult{
				ID: sw.ID, Title: sw.Title, Values: sw.Mean, Std: sw.Std,
				Seeds: sw.Seeds, Notes: sw.Last.Notes,
				Elapsed: time.Since(start).Round(time.Millisecond).String(),
			})
		} else {
			res, err := experiment.Run(id, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				failed++
				continue
			}
			fmt.Print(res.String())
			jsonOut = append(jsonOut, jsonResult{
				ID: res.ID, Title: res.Title, Values: res.Values, Notes: res.Notes,
				Elapsed: time.Since(start).Round(time.Millisecond).String(),
			})
		}
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(jsonOut, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error writing json: %v\n", err)
			failed++
		} else {
			fmt.Printf("machine-readable results written to %s\n", *jsonPath)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
