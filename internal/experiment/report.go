package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteMarkdownReport runs the given experiments and renders one
// self-contained markdown document: a header with the run
// configuration, then each experiment's table, series, and notes.
// It is how a fresh EXPERIMENTS-style record is regenerated from
// scratch on any machine.
func WriteMarkdownReport(w io.Writer, ids []string, opt Options) error {
	opt.defaults()
	results, err := RunAll(ids, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Lunule reproduction report\n\n")
	fmt.Fprintf(w, "- seed: %d\n- scale: %g\n- max ticks per run: %d\n- experiments: %s\n\n",
		opt.Seed, opt.Scale, opt.MaxTicks, strings.Join(ids, ", "))
	for _, res := range results {
		fmt.Fprintf(w, "## %s — %s\n\n", res.ID, res.Title)
		if t := res.Table; t != nil {
			fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
			fmt.Fprintf(w, "|%s\n", strings.Repeat(" --- |", len(t.Header)))
			for _, row := range t.Rows {
				fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
			}
			fmt.Fprintln(w)
		}
		for _, s := range res.Series {
			fmt.Fprintf(w, "- `%s`: %s\n", s.Name, s.Points)
		}
		if len(res.Series) > 0 {
			fmt.Fprintln(w)
		}
		for _, n := range res.Notes {
			fmt.Fprintf(w, "> %s\n", n)
		}
		fmt.Fprintf(w, "\n_(completed in %v)_\n\n", res.Elapsed.Round(time.Millisecond))
	}
	return nil
}
