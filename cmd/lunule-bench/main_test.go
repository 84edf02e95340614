package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsFail: an invocation the command cannot honour must exit 1
// with an error naming the flag before anything is simulated — never a
// half-printed suite (-exp fig6,nope used to run fig6 first), a
// half-written report, an id run twice, or a bad number silently
// replaced by a default.
func TestBadFlagsFail(t *testing.T) {
	md := filepath.Join(t.TempDir(), "out.md")
	for _, tc := range []struct {
		args []string
		want string // substring of the error line
	}{
		{[]string{"-exp", "overhead,nope"}, `-exp "nope"`},
		{[]string{"-exp", "overhead, ,table1"}, "-exp"},
		{[]string{"-exp", ""}, "-exp"},
		{[]string{"-exp", "overhead,table1,overhead"}, "-exp"},
		{[]string{"-exp", "overhead,nope", "-md", md}, `-exp "nope"`},
		{[]string{"-exp", "overhead", "-scale", "-1"}, "-scale"},
		{[]string{"-exp", "overhead", "-scale", "0"}, "-scale"},
		{[]string{"-exp", "fig6", "-scale", "Inf"}, "-scale"},
		{[]string{"-exp", "fig6", "-scale", "NaN"}, "-scale"},
		{[]string{"-exp", "fig6", "-scale", "1e300"}, "-scale"},
		{[]string{"-exp", "overhead", "-maxticks", "-5"}, "-maxticks"},
		{[]string{"-exp", "overhead", "-seeds", "-3"}, "-seeds"},
		{[]string{"-exp", "overhead", "-seeds", "0"}, "-seeds"},
		{[]string{"-exp", "overhead", "-md", md, "-seeds", "2"}, "-md"},
		{[]string{"-exp", "overhead", "-md", md, "-json", md + ".json"}, "-md"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 || stdout.Len() != 0 ||
			!strings.HasPrefix(stderr.String(), "error: ") || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, want 1 with an error naming %q and nothing run; stderr: %s stdout: %s",
				tc.args, code, tc.want, stderr.String(), stdout.String())
		}
	}
	if _, err := os.Stat(md); err == nil {
		t.Error("a rejected invocation created the -md file")
	}
}

// TestSmallRun pins the happy paths through run: ids are trimmed,
// results print in the order asked with one timing line each and a
// closing host line, and -md and -seeds produce their forms.
func TestSmallRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1, overhead", "-scale", "0.25"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	t1, ov := strings.Index(out, "=== table1:"), strings.Index(out, "=== overhead:")
	if t1 < 0 || ov < t1 || !strings.Contains(out, "\n(table1 in ") || !strings.Contains(out, "\n(overhead in ") ||
		!strings.Contains(out, "\n(total in ") || !strings.Contains(out, "GOMAXPROCS") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	md := filepath.Join(t.TempDir(), "out.md")
	stdout.Reset()
	if code := run([]string{"-exp", "overhead", "-md", md}, &stdout, &stderr); code != 0 {
		t.Fatalf("-md: exit %d, stderr: %s", code, stderr.String())
	}
	if data, err := os.ReadFile(md); err != nil || !strings.Contains(string(data), "## overhead —") {
		t.Fatalf("-md wrote %q, err %v", data, err)
	}

	stdout.Reset()
	if code := run([]string{"-exp", "overhead", "-seeds", "2"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "(2 seeds)") {
		t.Fatalf("-seeds 2: exit %d, stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
}
