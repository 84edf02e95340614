package simtest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// failures records what Pin reports instead of failing the test.
type failures struct {
	testing.TB
	msgs []string
}

func (f *failures) Errorf(format string, args ...any) {
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
}

// TestPin checks a ledger in a scratch directory: a pin that agrees
// passes, a moved or missing one is reported, and under -update the
// moved line is rewritten in place and a new name appended, comments
// kept.
func TestPin(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ledgerPath), []byte("# why\na 00\nb 11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	defer func() { ledger.lines, ledger.at = nil, nil }()

	f := &failures{TB: t}
	if !Pin(f, "a", "00") || Pin(f, "b", "22") || Pin(f, "c", "33") || len(f.msgs) != 2 {
		t.Fatalf("checking: %q", f.msgs)
	}
	*update = true
	defer func() { *update = false }()
	if !Pin(t, "b", "22") || !Pin(t, "c", "33") {
		t.Fatal("-update must record")
	}
	got, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "# why\na 00\nb 22\nc 33\n"; string(got) != want {
		t.Fatalf("ledger after -update:\n%s\nwant:\n%s", got, want)
	}
}
