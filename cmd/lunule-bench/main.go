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
	)
	flag.Parse()

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
