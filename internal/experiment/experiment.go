// Package experiment reproduces the paper's evaluation. Every table and
// figure of §4 is one entry of the registry below: a scenario lists the
// entry's cells (each an independent cluster on the experiment's seed),
// runCells runs them on one bounded pool, and the entry's report turns
// the finished runs into the rows/series the paper reports, each metric
// declared once as a column. The cmd/lunule-bench binary and the
// top-level benchmarks both drive this registry.
package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness (default 42).
	Seed uint64
	// Scale multiplies workload sizes; 1.0 is the default laptop scale
	// (every experiment completes in seconds). Larger values approach
	// the paper's dataset sizes.
	Scale float64
	// MaxTicks bounds each simulation (default: per experiment).
	MaxTicks int64
	// Audit attaches a state auditor to every cluster the experiment
	// builds and fails the run on any invariant violation. The auditor
	// is read-only, so audited results are identical to unaudited ones.
	Audit bool
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.MaxTicks == 0 {
		o.MaxTicks = 6000
	}
}

// Result is one experiment's output.
type Result struct {
	// ID is the registry key (e.g. "fig6").
	ID string
	// Title describes what the paper item shows.
	Title string
	// Table holds the reproduced rows.
	Table *metrics.Table
	// Series holds named, downsampled time series (textual figures).
	Series []NamedSeries
	// Notes records observations (paper-vs-measured commentary).
	Notes []string
	// Values exposes key numbers for tests and benchmarks.
	Values map[string]float64
	// Elapsed is the wall-clock of the scenario run behind this result
	// plus its report; results that share one run each carry that run's
	// time. It is the only field that differs between identical runs.
	Elapsed time.Duration
}

// NamedSeries is a labelled series rendered as "t=v" pairs.
type NamedSeries struct {
	Name   string
	Points string
}

// String renders the full result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-28s %s\n", s.Name, s.Points)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func (r *Result) val(key string, v float64) { r.Values[key] = v }

// plot appends a series downsampled to the given number of buckets.
func (r *Result) plot(name string, s *stats.Series, buckets int) {
	r.Series = append(r.Series, NamedSeries{Name: name, Points: metrics.FormatSeries(s, buckets)})
}

// ratio records Values[num]/Values[den] under key when the denominator
// is positive.
func (r *Result) ratio(key, num, den string) {
	if d := r.Values[den]; d > 0 {
		r.val(key, r.Values[num]/d)
	}
}

// note appends observations.
func (r *Result) note(notes ...string) { r.Notes = append(r.Notes, notes...) }

// A column declares one reported metric once: the table header, the
// table cell and the Values entry of every row all come from it, so a
// header and its cells cannot drift apart.
type column[T any] struct {
	// header is the table header; "" keeps the metric out of the table.
	header string
	format func(float64) string
	get    func(T) float64
	// keyed records the value under the row's prefix + key.
	keyed bool
	key   string
	// text, when set, makes this a table-only string column (labels,
	// rendered series) and the fields above but header are unused.
	text func(T) string
}

// num declares a metric that is both a table column and a value. A row
// for which get returns NaN has no such metric: its table cell is blank
// and no value is recorded.
func num[T any](header, key string, format func(float64) string, get func(T) float64) column[T] {
	return column[T]{header: header, format: format, get: get, keyed: true, key: key}
}

// shown declares a metric that appears in the table only.
func shown[T any](header string, format func(float64) string, get func(T) float64) column[T] {
	return column[T]{header: header, format: format, get: get}
}

// value declares a metric that is recorded but not tabulated.
func value[T any](key string, get func(T) float64) column[T] {
	return column[T]{get: get, keyed: true, key: key}
}

// text declares a table-only string column.
func text[T any](header string, get func(T) string) column[T] {
	return column[T]{header: header, text: get}
}

// tabulate appends one table row per element of rows, and records each
// keyed column's value under prefix(row)+key. The first call on a
// result sets the header row.
func tabulate[T any](res *Result, rows []T, prefix func(T) string, cols ...column[T]) {
	if res.Table == nil {
		res.Table = &metrics.Table{}
		for _, c := range cols {
			if c.header != "" {
				res.Table.Header = append(res.Table.Header, c.header)
			}
		}
	}
	for _, row := range rows {
		var cells []string
		for _, c := range cols {
			if c.text != nil {
				cells = append(cells, c.text(row))
				continue
			}
			v := c.get(row)
			if c.header != "" {
				cell := ""
				if !math.IsNaN(v) {
					cell = c.format(v)
				}
				cells = append(cells, cell)
			}
			if c.keyed && !math.IsNaN(v) {
				res.val(prefix(row)+c.key, v)
			}
		}
		res.Table.Add(cells...)
	}
}

// An entry is one table or figure of the evaluation.
type entry struct {
	id, title string
	// scenario lists the cells to simulate; consecutive entries that
	// point at the same scenario report on one shared run of it. Nil
	// marks a closed form, which report alone computes.
	scenario *scenario
	// cols declares the usual table: one row per run, in cell order.
	cols []column[*run]
	// report adds what is not a row per run: series, derived values,
	// tables over phases or generators. An entry has cols, report or both.
	report func(res *Result, opt Options, runs []*run) error
	// ratios lists derived values {key, numerator key, denominator key},
	// recorded after cols and before report.
	ratios [][3]string
	// notes is the paper-vs-measured commentary, placed after anything
	// report noted.
	notes []string
}

// registry lists every experiment in the order -exp all has always
// printed them.
var registry = []*entry{
	&expAblation, &expBatched, &expFig12a, &expFig12b, &expElastic, &expFailover, &expHetero,
	&expFig9, &expFig10, &expFig11, &expNoisy, &expReadStorm, &expReplication,
	&expFig13a, &expFig13b, &expFig14, &expOverhead, &expSharedDir,
	&expTable1, &expFig2, &expFig3, &expFig4, &expFig6, &expFig7, &expFig8,
}

// IDs returns the registered experiment IDs in registry order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Titles returns id -> title.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for _, e := range registry {
		out[e.id] = e.title
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, opt Options) (*Result, error) {
	results, err := RunAll([]string{id}, opt)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunAll executes the listed experiments in order and returns their
// results in that order. Consecutive entries that share a scenario
// share one run of it. An unknown id fails before anything runs; on a
// later error the results finished before it are returned with it.
func RunAll(ids []string, opt Options) ([]*Result, error) {
	opt.defaults()
	entries := make([]*entry, len(ids))
	for i, id := range ids {
		at := slices.IndexFunc(registry, func(e *entry) bool { return e.id == id })
		if at < 0 {
			known := IDs()
			slices.Sort(known)
			return nil, fmt.Errorf("experiment: unknown id %q (known: %s)", id, strings.Join(known, ", "))
		}
		entries[i] = registry[at]
	}
	// Only the latest scenario's clusters are kept: -exp all would
	// otherwise hold every experiment's until the end.
	var ran *scenario
	var runs []*run
	var simTime time.Duration
	results := make([]*Result, 0, len(ids))
	for _, e := range entries {
		start := time.Now()
		if e.scenario != ran {
			ran, runs, simTime = e.scenario, nil, 0
			if ran != nil {
				var err error
				if runs, err = runCells(e.id, opt, ran.cells(opt)); err != nil {
					return results, err
				}
				simTime = time.Since(start)
			}
		}
		reportStart := time.Now()
		res := &Result{ID: e.id, Title: e.title, Values: make(map[string]float64)}
		if e.cols != nil {
			tabulate(res, runs, runKey, e.cols...)
		}
		for _, q := range e.ratios {
			res.ratio(q[0], q[1], q[2])
		}
		if e.report != nil {
			if err := e.report(res, opt, runs); err != nil {
				return results, fmt.Errorf("experiment %s: %w", e.id, err)
			}
		}
		res.note(e.notes...)
		res.Elapsed = simTime + time.Since(reportStart)
		results = append(results, res)
	}
	return results, nil
}

// --- shared builders ---------------------------------------------------

func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 1) }

// maxScaledBase bounds the sizes the experiments pass to scaled (the
// largest is 60000).
const maxScaledBase = 1 << 20

// CheckScale returns an error naming -scale unless scale is > 0 and
// finite and every size scaled by it fits in an int: Go leaves the
// conversion of an unrepresentable float implementation-defined (on
// amd64 it yields MinInt64, which scaled clamps to a one-op run). The
// commands check their -scale with it before building anything.
func CheckScale(scale float64) error {
	if !(0 < scale && scale*maxScaledBase < math.MaxInt) {
		return fmt.Errorf("-scale must be > 0 with scaled sizes that fit an int, got %v", scale)
	}
	return nil
}

// scaledMin scales n but never below a floor — used where an
// experiment's dynamics need a minimum run length regardless of scale.
func scaledMin(n int, scale float64, floor int) int { return max(scaled(n, scale), floor) }

// WorkloadNames lists the five single workloads in the paper's order.
var WorkloadNames = []string{"CNN", "NLP", "Web", "Zipf", "MD"}

// Known returns an error naming the flag unless v is one of the names.
// MakeWorkload and MakeBalancer panic on a name they do not know; flags
// are outside input, so the commands check them with this first.
func Known(flagName, v string, names []string, more ...string) error {
	all := append(append([]string(nil), names...), more...)
	if slices.Contains(all, v) {
		return nil
	}
	return fmt.Errorf("unknown -%s %q (want one of %s)", flagName, v, strings.Join(all, ", "))
}

// workloadSpellings and balancerSpellings are the commands' one
// spelling table for -workload and -balancer: each row is the name
// MakeWorkload or MakeBalancer takes, then its aliases. Matching
// ignores case.
var (
	workloadSpellings = [][]string{
		{"CNN"}, {"NLP"}, {"Web"}, {"Zipf"}, {"MD", "mdtest"}, {"Mixed"},
		{"ReadStorm", "read-storm"},
	}
	balancerSpellings = [][]string{
		{"Vanilla", "cephfs", "cephfs-vanilla"}, {"GreedySpill", "greedy"},
		{"Lunule-Light", "light"}, {"Lunule"}, {"Dir-Hash", "dirhash", "hash"},
	}
)

// WorkloadName returns the MakeWorkload name that the -workload value v
// spells, or an error naming the flag.
func WorkloadName(v string) (string, error) { return spelled("workload", v, workloadSpellings) }

// BalancerName returns the MakeBalancer name that the -balancer value v
// spells, or an error naming the flag.
func BalancerName(v string) (string, error) { return spelled("balancer", v, balancerSpellings) }

func spelled(flagName, v string, table [][]string) (string, error) {
	names := make([]string, len(table))
	for i, row := range table {
		for _, sp := range row {
			if strings.EqualFold(v, sp) {
				return row[0], nil
			}
		}
		names[i] = row[0]
	}
	return "", Known(flagName, v, names)
}

// MakeWorkload builds one of the paper's workloads at the given scale.
func MakeWorkload(name string, scale float64) workload.Generator {
	switch name {
	case "CNN":
		return workload.NewCNN(workload.CNNConfig{
			Dirs:        300,
			FilesPerDir: scaled(32, scale),
		})
	case "NLP":
		return workload.NewNLP(workload.NLPConfig{
			FilesPerDir: scaled(400, scale),
		})
	case "Web":
		return workload.NewWeb(workload.WebConfig{
			Files:             scaled(12000, scale),
			RequestsPerClient: scaled(20000, scale),
		})
	case "Zipf":
		return workload.NewZipf(workload.ZipfConfig{
			OpsPerClient: scaled(40000, scale),
		})
	case "MD":
		return workload.NewMD(workload.MDConfig{
			CreatesPerClient: scaled(25000, scale),
		})
	case "ReadStorm":
		return workload.NewReadStorm(workload.ReadStormConfig{
			Files:        scaled(2000, scale),
			OpsPerClient: scaled(12000, scale),
		})
	case "Mixed":
		return workload.NewMixed(
			MakeWorkload("CNN", scale),
			MakeWorkload("NLP", scale),
			MakeWorkload("Web", scale),
			MakeWorkload("Zipf", scale),
		)
	default:
		panic("experiment: unknown workload " + name)
	}
}

// BalancerNames lists the four policies of the single-workload grid.
var BalancerNames = []string{"Vanilla", "GreedySpill", "Lunule-Light", "Lunule"}

// MakeBalancer builds a policy by name.
func MakeBalancer(name string) balancer.Balancer {
	switch name {
	case "Vanilla":
		return balancer.NewVanilla()
	case "GreedySpill":
		return balancer.NewGreedySpill()
	case "Lunule-Light":
		return core.NewLight()
	case "Lunule":
		return core.NewDefault()
	case "Dir-Hash":
		return balancer.NewDirHash()
	default:
		panic("experiment: unknown balancer " + name)
	}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func fi(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
