package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
)

// printHeader records the host and the settings a reader needs to
// judge the numbers below it.
func printHeader(w io.Writer, o suiteOpts, selected []workloadDef) {
	names := make([]string, len(selected))
	for i, s := range selected {
		names[i] = s.Name
	}
	fmt.Fprintf(w, "# lunule metadata-cluster simulator benchmark\n")
	fmt.Fprintf(w, "# host: NumCPU=%d GOMAXPROCS=%d (each run: its workload's Workers) %s/%s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(w, "# commit: %s\n", gitHead())
	fmt.Fprintf(w, "# seed=%d seeds=%d repeats=%d slice=%d ticks trace=%d\n", o.Seed, o.Seeds, o.Repeats, sliceTicks, o.Trace)
	fmt.Fprintf(w, "# workloads: %s\n", strings.Join(names, " "))
}

// gitHead is `git rev-parse HEAD`, or "unknown" outside a git checkout
// (the driver's checkouts are not repositories).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printReport prints every metric by name with its unit: the
// end-to-end table with the spread of the host metrics, then the
// per-layer table when a traced run was made.
func printReport(w io.Writer, results []*workloadResult) {
	for _, wr := range results {
		fmt.Fprintf(w, "\n== %s ==\n", wr.Def.Name)
		for _, g := range wr.Groups {
			first := g.Repeats[0]
			fmt.Fprintf(w, "seed %d: window %d ticks after %d warm-up, %.0f ops, digest %s\n",
				g.Seed, first.Ticks, wr.Def.Warmup, first.Ops, g.Digest)
		}
		fmt.Fprintf(w, "%-40s %16s %-9s %s\n", "end-to-end metric", "value", "unit", "per-repeat median [min .. max]")
		for _, m := range registry {
			if m.Kind != endToEnd || (m.Only != "" && m.Only != wr.Def.Name) {
				continue
			}
			x, ok := wr.E2E[m.Name]
			if !ok {
				continue // needs the traced phase, which -trace 0 skips
			}
			line := fmt.Sprintf("%-40s %16s %-9s", m.Name, formatValue(x), m.Unit)
			if s, ok := wr.Spreads[m.Name]; ok {
				line += fmt.Sprintf(" %s [%s .. %s]", formatValue(s.Median), formatValue(s.Min), formatValue(s.Max))
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
		if wr.Layers == nil {
			continue
		}
		fmt.Fprintf(w, "%-40s %16s %-9s\n", "per-layer metric", "value", "unit")
		for _, m := range registry {
			if m.Kind != perLayer || (m.Only != "" && m.Only != wr.Def.Name) {
				continue
			}
			fmt.Fprintf(w, "%-40s %16s %s\n", m.Name, formatValue(wr.Layers[m.Name]), m.Unit)
		}
		fmt.Fprintf(w, "spans written to %s\n", wr.TraceFile)
	}
}

func formatValue(x float64) string {
	switch ax := max(x, -x); {
	case x == float64(int64(x)) && ax < 1e15:
		return fmt.Sprintf("%d", int64(x))
	case ax >= 1000:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}

// countProblems prints the correctness verdict of each workload and
// returns how many failed.
func countProblems(w io.Writer, results []*workloadResult) int {
	bad := 0
	fmt.Fprintln(w)
	for _, wr := range results {
		if wr.Failed == 0 && len(wr.Problems) == 0 {
			fmt.Fprintf(w, "ok   %-16s %d ops attempted, 0 failed, digest equal across the %d repeats at each seed (%d) and the check runs\n",
				wr.Def.Name, wr.Attempted, len(wr.Groups[0].Repeats), len(wr.Groups))
			continue
		}
		bad++
		fmt.Fprintf(w, "FAIL %-16s %d of %d ops failed\n", wr.Def.Name, wr.Failed, wr.Attempted)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "     %s\n", p)
		}
	}
	return bad
}

// printAgreement compares two sets of the same code. Every exact metric
// and the digest must be identical; every other end-to-end metric must
// agree within its own bound. It returns the number of disagreements.
func printAgreement(w io.Writer, a, b []*workloadResult) int {
	bad := 0
	fmt.Fprintf(w, "\n== agreement between the two sets ==\n")
	for i, wa := range a {
		wb := b[i]
		for s, ga := range wa.Groups {
			if gb := wb.Groups[s]; ga.Digest != gb.Digest {
				bad++
				fmt.Fprintf(w, "DISAGREE %-16s seed %d digest %.12s vs %.12s\n", wa.Def.Name, ga.Seed, ga.Digest, gb.Digest)
			}
		}
		for _, m := range registry {
			if (m.Only != "" && m.Only != wa.Def.Name) || (m.Kind == perLayer && !m.Exact) {
				continue // not measured here, or a host-time layer number with no bound
			}
			xa, xb := wa.value(m), wb.value(m)
			apart := ratio(max(xa-xb, xb-xa), max(xa, xb))
			verdict := "agree"
			if (m.Exact && xa != xb) || (!m.Exact && apart > m.Bound) {
				verdict = "DISAGREE"
				bad++
			}
			if verdict == "DISAGREE" || !m.Exact {
				fmt.Fprintf(w, "%-8s %-16s %-28s %s vs %s (%.2f%% apart, bound %.0f%%)\n",
					verdict, wa.Def.Name, m.Name, formatValue(xa), formatValue(xb), 100*apart, 100*m.Bound)
			}
		}
	}
	if bad == 0 {
		fmt.Fprintf(w, "every exact metric and digest identical across the two sets\n")
	}
	return bad
}
