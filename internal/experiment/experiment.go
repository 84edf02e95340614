// Package experiment reproduces the paper's evaluation: every table and
// figure of §4 has a runner here that builds the right workloads,
// cluster shape, and balancers, runs the simulation, and reports the
// same rows/series the paper reports. The cmd/lunule-bench binary and
// the top-level benchmarks both drive this registry.
package experiment

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
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

// auditor returns a fresh epoch-cadence auditor when auditing is
// requested, else nil (the zero-cost disabled state).
func (o Options) auditor() *audit.Auditor {
	if !o.Audit {
		return nil
	}
	return audit.New(audit.Options{})
}

// auditErr surfaces any invariant violations a run's auditor recorded.
// Nil-safe on unaudited clusters.
func auditErr(c *cluster.Cluster) error {
	return c.Auditor().Err()
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

func (r *Result) val(key string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[key] = v
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

var registry = map[string]struct {
	title  string
	runner Runner
}{}
var order []string

func register(id, title string, r Runner) {
	registry[id] = struct {
		title  string
		runner Runner
	}{title, r}
	order = append(order, id)
}

// IDs returns the registered experiment IDs in registration order.
func IDs() []string { return append([]string(nil), order...) }

// Titles returns id -> title.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for id, e := range registry {
		out[id] = e.title
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, opt Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiment: unknown id %q (known: %s)", id, strings.Join(known, ", "))
	}
	opt.defaults()
	res, err := e.runner(opt)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	res.ID = id
	res.Title = e.title
	return res, nil
}

// --- shared builders ---------------------------------------------------

func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 1) }

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

// runOne builds and runs a cluster to completion (or MaxTicks). With
// Options.Audit set, every run carries a state auditor and an invariant
// violation fails the experiment.
func runOne(opt Options, cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Seed == 0 {
		cfg.Seed = opt.Seed
	}
	if cfg.Audit == nil {
		cfg.Audit = opt.auditor()
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	c.RunUntilDone(opt.MaxTicks)
	if err := auditErr(c); err != nil {
		return nil, err
	}
	return c, nil
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func fi(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
