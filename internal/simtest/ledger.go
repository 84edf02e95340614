package simtest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "re-record pinned digests and golden files from this run's output")

// Update reports whether the test binary runs with -update: a pinned
// output is then re-recorded instead of compared.
func Update() bool { return *update }

// ledgerPath is where a package keeps its pinned digests, relative to
// the package directory a test runs in: one "name hex" line per pin;
// blank lines and lines starting with # are kept as they are.
const ledgerPath = "testdata/digests.txt"

var ledger struct {
	sync.Mutex
	lines []string
	at    map[string]int // pin name -> index in lines
}

// Pin checks got, a hex SHA-256, against the pin called name in the
// package's ledger and reports whether they agree. Under -update it
// rewrites that pin's line (appending one for a new name) instead.
func Pin(t testing.TB, name, got string) bool {
	t.Helper()
	ledger.Lock()
	defer ledger.Unlock()
	if ledger.at == nil {
		if err := loadLedger(); err != nil {
			t.Fatal(err)
		}
	}
	i, ok := ledger.at[name]
	if ok && strings.Fields(ledger.lines[i])[1] == got {
		return true
	}
	switch {
	case *update:
		if !ok {
			i = len(ledger.lines)
			ledger.lines = append(ledger.lines, "")
			ledger.at[name] = i
		}
		ledger.lines[i] = name + " " + got
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, []byte(strings.Join(ledger.lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	case !ok:
		t.Errorf("%s: no pin in %s (record it with go test -update)", name, ledgerPath)
	default:
		t.Errorf("%s: digest %s, pinned %s: output changed (make repin re-records it)",
			name, got, strings.Fields(ledger.lines[i])[1])
	}
	return false
}

func loadLedger() error {
	b, err := os.ReadFile(ledgerPath)
	if err != nil && !(os.IsNotExist(err) && *update) {
		return err
	}
	if text := strings.TrimSuffix(string(b), "\n"); text != "" {
		ledger.lines = strings.Split(text, "\n")
	}
	ledger.at = make(map[string]int, len(ledger.lines))
	for i, line := range ledger.lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("%s:%d: want \"name hex\", got %q", ledgerPath, i+1, line)
		}
		if _, dup := ledger.at[f[0]]; dup {
			return fmt.Errorf("%s:%d: pin %s listed twice", ledgerPath, i+1, f[0])
		}
		ledger.at[f[0]] = i
	}
	return nil
}
