// Command lunule-trace analyzes a workload's operation stream the way
// the pattern analyzer sees it: op-kind mix, metadata ratio, and the
// per-window locality signature (recurrent-visit ratio alpha,
// first-visit ratio beta) of the whole stream. Use it to understand
// why a workload favours temporal- or spatial-locality balancing
// before running full simulations.
//
//	lunule-trace -workload cnn
//	lunule-trace -workload zipf -clients 4 -windowops 2000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its streams and exit code made explicit, so
// the flag checks are testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lunule-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "Zipf", "workload: CNN, NLP, Web, Zipf, MD, Mixed, ReadStorm")
		clients   = fs.Int("clients", 4, "number of client streams to interleave")
		scale     = fs.Float64("scale", 1.0, "workload scale factor")
		seed      = fs.Uint64("seed", 42, "random seed")
		windowOps = fs.Int("windowops", 4000, "accesses per cutting window")
		windows   = fs.Int("windows", 12, "number of windows to report")
		export    = fs.String("export", "", "write the workload's op streams to this trace file and exit (replayable via lunule-sim -tracefile)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "error: %v\n", err)
		return 1
	}

	// MakeWorkload panics on a name it does not know, and a non-positive
	// scale or count analyses a degenerate run; flags are outside input.
	name, err := experiment.WorkloadName(*wl)
	if err != nil {
		return fail(err)
	}
	if err := experiment.CheckScale(*scale); err != nil {
		return fail(err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"clients", *clients}, {"windowops", *windowOps}, {"windows", *windows}} {
		if f.v < 1 {
			return fail(fmt.Errorf("-%s must be >= 1, got %d", f.name, f.v))
		}
	}
	// The collector keeps one window more than it reports, and at most
	// 31 (trace.NewCollector).
	if *windows > 30 {
		return fail(fmt.Errorf("-windows must be <= 30, got %d", *windows))
	}

	gen := experiment.MakeWorkload(name, *scale)
	tree := namespace.NewTree()
	specs, err := gen.Setup(tree, *clients, rng.New(*seed))
	if err != nil {
		return fail(err)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return fail(err)
		}
		if err := workload.WriteTrace(f, specs); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace written to %s (%d clients)\n", *export, *clients)
		return 0
	}

	// Interleave the client streams round-robin, the way concurrent
	// clients hit the metadata service.
	streams := make([]workload.Stream, len(specs))
	for i, sp := range specs {
		streams[i] = sp.Stream
	}

	col := trace.NewCollector(*windows + 1)
	rootKey := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}

	kinds := map[workload.OpKind]int{}
	meta, data := 0, 0
	epoch := int64(0)
	inWindow := 0
	type sig struct{ alpha, beta float64 }
	var sigs []sig
	live := len(streams)

	flush := func() {
		c := col.RecentKey(rootKey, epoch, 1)
		var s sig
		if c.Distinct > 0 {
			s.alpha = float64(c.Recurrent) / float64(c.Distinct)
		}
		if c.Visits > 0 {
			s.beta = float64(c.FirstVisits) / float64(c.Visits)
		}
		sigs = append(sigs, s)
	}

	for live > 0 && len(sigs) < *windows {
		live = 0
		for _, s := range streams {
			op, ok := s.Next()
			if !ok {
				continue
			}
			live++
			kinds[op.Kind]++
			meta++
			if op.DataSize > 0 {
				data++
			}
			target := op.Target
			if op.Kind == workload.OpCreate {
				target = op.Parent.Child(op.Name)
				if target == nil {
					target, err = tree.Create(op.Parent, op.Name, op.Size)
					if err != nil {
						continue
					}
				}
			}
			col.Record(rootKey, target, epoch)
			inWindow++
			if inWindow >= *windowOps {
				flush()
				inWindow = 0
				epoch++
			}
		}
	}
	if inWindow > 0 && len(sigs) < *windows {
		flush()
	}

	fmt.Fprintf(stdout, "workload %s, %d clients, %d ops analyzed\n\n", gen.Name(), *clients, meta)
	tbl := &metrics.Table{Header: []string{"op kind", "count", "share"}}
	for _, k := range []workload.OpKind{
		workload.OpLookup, workload.OpGetattr, workload.OpOpen,
		workload.OpReaddir, workload.OpCreate,
	} {
		if kinds[k] == 0 {
			continue
		}
		tbl.Add(k.String(), fmt.Sprint(kinds[k]),
			fmt.Sprintf("%.1f%%", 100*float64(kinds[k])/float64(meta)))
	}
	fmt.Fprint(stdout, tbl.String())
	fmt.Fprintf(stdout, "\nmetadata-op ratio: %.3f (meta %d / data %d)\n\n",
		float64(meta)/float64(meta+data), meta, data)

	fmt.Fprintf(stdout, "locality signature per window (%d ops each):\n", *windowOps)
	fmt.Fprintf(stdout, "%-8s %-22s %-22s\n", "window", "alpha (recurrent)", "beta (first-visit)")
	for i, s := range sigs {
		fmt.Fprintf(stdout, "%-8d %-22s %-22s\n", i,
			bar(s.alpha)+fmt.Sprintf(" %.2f", s.alpha),
			bar(s.beta)+fmt.Sprintf(" %.2f", s.beta))
	}
	fmt.Fprintln(stdout, "\nhigh alpha -> temporal locality (heat-based balancing works);")
	fmt.Fprintln(stdout, "high beta  -> spatial locality (scans/creates; Lunule's mIndex needed)")
	return 0
}

func bar(v float64) string {
	n := int(v * 12)
	if n < 0 {
		n = 0
	}
	if n > 12 {
		n = 12
	}
	out := make([]byte, 12)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
