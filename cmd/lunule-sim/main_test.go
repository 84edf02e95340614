package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simtest"
)

// TestGoldenOutput locks down the full lunule-sim report — summary
// table (including the fault rows and the trace-count row), sparkline
// figures, and trace summary — for a small seeded failover run. The
// simulator is deterministic, so any diff here is a behavior change,
// not noise. Regenerate intentionally with:
//
//	go test ./cmd/lunule-sim -run TestGolden -update
func TestGoldenOutput(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{
		"-workload", "zipf", "-mds", "3", "-clients", "6",
		"-rate", "5", "-scale", "0.02", "-seed", "7",
		"-crash", "30:hot", "-recover", "90:0", "-maxticks", "600",
		"-trace-out", tracePath, "-trace-summary",
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr:\n%s", stderr.String())
	}
	// The trace lands in a per-run temp dir; normalize the path so the
	// golden file is stable.
	got := strings.ReplaceAll(stdout.String(), tracePath, "TRACE.jsonl")

	golden := filepath.Join("testdata", "golden.txt")
	if simtest.Update() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}

	// The trace itself must exist and include the failover lifecycle.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{`"type":"mds_crash"`, `"type":"orphan_takeover"`, `"type":"mds_recover"`, `"type":"backoff_enter"`} {
		if !strings.Contains(string(trace), ev) {
			t.Fatalf("trace missing %s", ev)
		}
	}
}

// TestBadFlagsFail covers the error seam: an unknown event type must
// exit non-zero with a diagnostic, not panic or silently ignore.
func TestBadFlagsFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace-events", "bogus"}, &stdout, &stderr); code == 0 {
		t.Fatal("bogus -trace-events without a sink must fail")
	}
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	stderr.Reset()
	if code := run([]string{"-trace-out", tracePath, "-trace-events", "bogus"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown event type must fail")
	}
	if !strings.Contains(stderr.String(), "bogus") {
		t.Fatalf("diagnostic should name the bad type, got: %s", stderr.String())
	}
	// Values that used to panic inside a constructor, or run and print a
	// silently wrong table: each must exit 1 with an error naming it.
	sparse := filepath.Join(t.TempDir(), "sparse.trace")
	if err := os.WriteFile(sparse, []byte("300000000 getattr /a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of the error line
	}{
		{[]string{"-tracefile", sparse}, "no line has client 0"},
		{[]string{"-mds", "-1"}, "-mds"},
		// Each of these used to run: a default replaced the value, or the
		// feature silently turned off.
		{[]string{"-mds", "0"}, "-mds"},
		{[]string{"-clients", "0"}, "-clients"},
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-capacity", "0"}, "-capacity"},
		{[]string{"-mtbf", "-5"}, "-mtbf"},
		{[]string{"-mtbf", "100", "-mttr", "-5"}, "-mttr"},
		{[]string{"-batch-size", "-3"}, "-batch-size"},
		{[]string{"-tenants", "-2"}, "-tenants"},
		{[]string{"-replication", "0"}, "-replication"},
		{[]string{"-replication", "-1"}, "-replication"},
		{[]string{"-recoveryticks", "-5"}, "-recoveryticks"},
		{[]string{"-recoveryticks", "0"}, "-recoveryticks"},
		{[]string{"-batch-size", "32", "-flush-every", "0"}, "-flush-every"},
		{[]string{"-maxticks", "-1"}, "-maxticks"},
		{[]string{"-clients", "-3"}, "clients"},
		{[]string{"-capacity", "-5"}, "capacity"},
		{[]string{"-rate", "-1"}, "rate"},
		{[]string{"-scale", "-1"}, "scale"},
		{[]string{"-scale", "Inf"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-scale", "1e300"}, "-scale"},
		{[]string{"-rate", "Inf"}, "rate"},
		{[]string{"-replicate-read-frac", "NaN", "-lease-ticks", "10", "-replication", "2"}, "ReplicateReadFrac"},
		{[]string{"-replication", "2", "-lease-ticks", "-1"}, "LeaseTicks"},
		{[]string{"-tenants", "4", "-tenant-skew", "NaN"}, "skew"},
		{[]string{"-tenants", "4", "-tenant-skew", "Inf"}, "skew"},
		{[]string{"-tenants", "2", "-tenant-rate", "1e13", "-tenant-burst", "2e13"}, "rate must be in"},
		{[]string{"-tenants", "2", "-tenant-burst", "1e13"}, "burst must be"},
		{[]string{"-mtbf", "Inf"}, "-mtbf"},
		{[]string{"-mtbf", "100", "-mttr", "NaN"}, "-mttr"},
		{[]string{"-workload", "nope"}, "nope"},
		{[]string{"-balancer", "nope"}, "nope"},
		{[]string{"-replication", "2", "-recoveryticks", "1"}, "PromoteTicks"},
		// A dependent flag set to its default still needs its parent.
		{[]string{"-tenant-rate", "4000"}, "-tenant-rate needs -tenants"},
		{[]string{"-lease-ticks", "0"}, "-lease-ticks needs -replication >= 2"},
		{[]string{"-elastic-min", "4"}, "-elastic-min needs -elastic"},
		{[]string{"-flush-every", "4"}, "-flush-every needs -batch-size"},
		{[]string{"-mttr", "50"}, "-mttr needs -mtbf"},
		// Out of range: a negative floor or ceiling fell back to its
		// default, and a negative skew was read as 0.
		{[]string{"-elastic", "-elastic-min", "-1"}, "-elastic-min"},
		{[]string{"-elastic", "-elastic-max", "-4"}, "-elastic-max"},
		{[]string{"-tenants", "3", "-tenant-skew", "-2"}, "-tenant-skew"},
		// A trace fixes its own clients and ops, so these were ignored.
		{[]string{"-tracefile", sparse, "-clients", "10"}, "-clients cannot be combined with -tracefile"},
		{[]string{"-tracefile", sparse, "-workload", "CNN"}, "-workload cannot be combined with -tracefile"},
		{[]string{"-tracefile", sparse, "-scale", "3"}, "-scale cannot be combined with -tracefile"},
	} {
		stderr.Reset()
		if code := run(tc.args, &stdout, &stderr); code != 1 ||
			!strings.HasPrefix(stderr.String(), "error: ") || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, want 1 with an error naming %q; stderr: %s",
				tc.args, code, tc.want, stderr.String())
		}
	}
}

// TestReplicatedRunWithPathCrash smoke-tests the replication flags
// end-to-end: an audited R=2 run with a partition-scoped crash exits
// clean and reports the replication summary rows.
func TestReplicatedRunWithPathCrash(t *testing.T) {
	args := []string{
		"-workload", "zipf", "-mds", "3", "-clients", "6",
		"-rate", "5", "-scale", "0.02", "-seed", "7",
		"-replication", "2", "-crash", "30:/zipf/client000",
		"-recoveryticks", "25", "-audit", "-audit-every-tick",
		"-maxticks", "600",
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, row := range []string{"replication factor", "warm promotions", "resyncs started / done", "journal records / max lag"} {
		if !strings.Contains(out, row) {
			t.Fatalf("summary missing %q:\n%s", row, out)
		}
	}
	if !strings.Contains(out, "MDS crashes") {
		t.Fatalf("path crash never fired:\n%s", out)
	}
}
