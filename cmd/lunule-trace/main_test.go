package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsFail: a flag value the analysis cannot use must exit 1
// with an error naming it — never a panic from a constructor
// (-workload bogus used to die in experiment.MakeWorkload) or a
// degenerate run reported as if it were the workload's (-scale -1 used
// to analyse four ops).
func TestBadFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error line
	}{
		{[]string{"-workload", "bogus"}, "bogus"},
		{[]string{"-scale", "-1"}, "scale"},
		{[]string{"-scale", "0"}, "scale"},
		{[]string{"-scale", "Inf"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-scale", "1e300"}, "-scale"},
		{[]string{"-clients", "0"}, "clients"},
		{[]string{"-windowops", "0"}, "windowops"},
		{[]string{"-windows", "-2"}, "windows"},
		{[]string{"-windows", "31"}, "windows"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 ||
			!strings.HasPrefix(stderr.String(), "error: ") || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, want 1 with an error naming %q; stderr: %s",
				tc.args, code, tc.want, stderr.String())
		}
	}
}

// TestSmallRun pins the happy path through run: a tiny analysis exits 0
// and prints the signature table.
func TestSmallRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "zipf", "-clients", "2", "-scale", "0.01", "-windowops", "100", "-windows", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "locality signature per window (100 ops each)") {
		t.Fatalf("missing signature table:\n%s", stdout.String())
	}
}

// TestWorkloadSpellings: -workload takes the spellings lunule-sim takes
// (experiment.WorkloadName), in any case.
func TestWorkloadSpellings(t *testing.T) {
	for _, wl := range []string{"mdtest", "ZIPF", "read-storm"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", wl, "-clients", "2", "-scale", "0.01", "-windowops", "100", "-windows", "1"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("-workload %s: exit %d, stderr: %s", wl, code, stderr.String())
		}
	}
}
