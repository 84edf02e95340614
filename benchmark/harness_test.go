package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func findMetric(name string) *metricDef {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i]
		}
	}
	return nil
}

// short returns the named workload cut down to a 50-tick window.
func short(t *testing.T, name string) workloadDef {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	s := *w
	s.Warmup, s.Ticks, s.ToCompletion, s.RecoverAt = 10, 50, false, 0
	return s
}

// The balancer, generator and sink wrappers of a traced run must be
// invisible to the simulation: same digest with and without them.
func TestWrappersLeaveDigestUnchanged(t *testing.T) {
	for _, name := range []string{"zipf_read", "full_stack"} {
		w := short(t, name)
		plain, err := runOnce(w, 7, runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(w.Name)
		traced, err := runOnce(w, 7, runOpts{tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: digest %s traced, %s untraced", name, traced.Digest, plain.Digest)
		}
		if plain.Failed != 0 || traced.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: failed %d/%d untraced, %d/%d traced", name, plain.Failed, plain.Attempted, traced.Failed, traced.Attempted)
		}
		if len(plain.Slices) != 1 || plain.Ticks != 50 || plain.Ops <= 0 {
			t.Errorf("%s: %d slices over %d ticks, %.0f ops", name, len(plain.Slices), plain.Ticks, plain.Ops)
		}

		steps := len(tr.within(traced.Window, "cluster.Step")) + len(tr.within(traced.Window, "cluster.Step.epoch"))
		if steps != 50 {
			t.Errorf("%s: %d step spans in the window, want 50", name, steps)
		}
		if got := len(tr.within(traced.Window, "balancer.Rebalance")); got != 5 {
			t.Errorf("%s: %d rebalance spans in the window, want 5", name, got)
		}
		if (traced.Events > 0) != w.Events {
			t.Errorf("%s: sink counted %d events, bus attached = %v", name, traced.Events, w.Events)
		}
		layers := inSituMetrics(tr, traced, float64(plain.windowNs()))
		if layers["workload.setup_ms"] <= 0 || layers["cluster.tick_ms_p50"] <= 0 || layers["core.rebalances"] != 5 {
			t.Errorf("%s: in-situ metrics %v", name, layers)
		}
		if layers["workload.ops_drawn"] != float64(traced.Attempted) {
			t.Errorf("%s: ops_drawn %v, attempted %d", name, layers["workload.ops_drawn"], traced.Attempted)
		}
	}
}

// A check run (audited, one worker) must reproduce the digest of the
// parallel, unaudited configuration.
func TestCheckRunMatchesParallelDigest(t *testing.T) {
	w := short(t, "wide_parallel")
	w.Warmup = 0
	parallel, err := runOnce(w, 7, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runOnce(w, 7, runOpts{audit: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Digest != serial.Digest {
		t.Fatalf("digest %s on 2 workers, %s audited on 1", parallel.Digest, serial.Digest)
	}
	if serial.Failed != 0 || serial.Cluster != nil {
		t.Fatalf("check run: %d failed (%v), cluster kept = %v", serial.Failed, serial.Violations, serial.Cluster != nil)
	}
}

// A digest that differs from the first repeat's fails the whole run.
func TestAccountCountsDigestMismatchAsFailed(t *testing.T) {
	wr, g := &workloadResult{}, &seedGroup{}
	wr.account(g, "repeat 1", &runResult{Digest: "a", Attempted: 100})
	wr.account(g, "repeat 2", &runResult{Digest: "a", Attempted: 100, Failed: 3})
	wr.account(g, "traced run", &runResult{Digest: "b", Attempted: 100})
	if wr.Attempted != 300 || wr.Failed != 103 || len(wr.Problems) != 2 {
		t.Fatalf("attempted %d failed %d problems %q", wr.Attempted, wr.Failed, wr.Problems)
	}
	// Another seed simulates another run: its digest is its own.
	wr.account(&seedGroup{}, "seed 2 repeat 1", &runResult{Digest: "c", Attempted: 100})
	if wr.Attempted != 400 || wr.Failed != 103 {
		t.Fatalf("second seed: attempted %d failed %d", wr.Attempted, wr.Failed)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

// BENCHMARK.json and the harness registry must name the same workloads
// and metrics, in both directions.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	driven := 0
	for _, w := range workloads {
		if !w.ReportOnly {
			driven++
		}
	}
	if len(b.Workloads) != driven {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness that are not report-only", len(b.Workloads), driven)
	}
	for _, jw := range b.Workloads {
		w := findWorkload(jw.Name)
		switch {
		case !name.MatchString(jw.Name):
			t.Errorf("workload name %q", jw.Name)
		case w == nil || w.ReportOnly:
			t.Errorf("workload %q is not in the harness, or is report-only there", jw.Name)
		case w.Why != jw.Why || len(jw.Why) > 200:
			t.Errorf("workload %q: why differs from the harness's or exceeds 200 characters", jw.Name)
		}
	}

	sections := map[string][]jsonMetric{"end_to_end": b.EndToEnd, "per_layer": b.PerLayer}
	seen := map[string]bool{}
	for section, list := range sections {
		if want := metricsIn(section); len(list) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the registry", section, len(list), len(want))
		}
		for _, jm := range list {
			m := findMetric(jm.Name)
			if !name.MatchString(jm.Name) || !unit.MatchString(jm.Unit) || seen[jm.Name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", section, jm.Name, jm.Unit)
			}
			seen[jm.Name] = true
			if m == nil || m.inBenchmarkJSON() != section {
				t.Errorf("%s: %q is not a %s metric of the registry", section, jm.Name, section)
				continue
			}
			if m.Unit != jm.Unit || m.Better != jm.Better {
				t.Errorf("%q: %s/%s in BENCHMARK.json, %s/%s in the registry", jm.Name, jm.Unit, jm.Better, m.Unit, m.Better)
			}
			switch {
			case section == "per_layer" && jm.Bound != nil:
				t.Errorf("%q: per-layer metrics carry no bound", jm.Name)
			case section == "end_to_end" && (jm.Bound == nil || *jm.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%q: bound must equal the registry's %v and lie in (0, 0.25]", jm.Name, m.Bound)
			}
		}
	}
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Command) == 0 {
		t.Errorf("paths %v run_seconds %d command %v", b.Paths, b.RunSeconds, b.Command)
	}
}

func TestRegistryNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range registry {
		if seen[m.Name] {
			t.Errorf("metric %q registered twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Only != "" && findWorkload(m.Only) == nil {
			t.Errorf("metric %q confined to unknown workload %q", m.Name, m.Only)
		}
	}
}

func TestSelectWorkloads(t *testing.T) {
	all, err := selectWorkloads("")
	if err != nil || len(all) != len(workloads) {
		t.Fatalf("empty pattern selected %d (%v)", len(all), err)
	}
	two, err := selectWorkloads("zipf.*|wide_parallel")
	if err != nil || len(two) != 2 {
		t.Fatalf("alternation selected %d (%v)", len(two), err)
	}
	if sub, _ := selectWorkloads("zipf"); len(sub) != 0 {
		t.Fatal("a pattern must match the full name")
	}
	if _, err := selectWorkloads("("); err == nil {
		t.Fatal("bad pattern accepted")
	}
}
