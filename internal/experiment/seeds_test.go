package experiment

import (
	"strings"
	"testing"
)

// TestRunSeedsAggregates: at two seeds RunAll keeps both seeds' values
// and renders their medians with a [min, max] range.
func TestRunSeedsAggregates(t *testing.T) {
	results, err := RunAll([]string{"overhead"}, Options{Scale: 0.25, Seed: 42, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(results) != 1 || res.ID != "overhead" || len(res.PerSeed) != 2 {
		t.Fatal("multi-seed result metadata")
	}
	// Overhead is deterministic and seed-independent: both seeds agree.
	for k, v := range res.Values {
		for s, vals := range res.PerSeed {
			if vals[k] != v {
				t.Fatalf("seed %d: %s = %v, want %v for a seed-independent experiment", s, k, vals[k], v)
			}
		}
	}
	if res.Values["mds16.lunule.outKB"] <= 0 {
		t.Fatal("median missing")
	}
	if res.Table == nil {
		t.Fatal("result must carry the rendered tables")
	}
	out := res.String()
	if !strings.Contains(out, "(2 seeds)") || !strings.Contains(out, "mds16.lunule.outKB") || !strings.Contains(out, "[") {
		t.Fatalf("multi-seed rendering: %q", out)
	}
}

func TestRunSeedsClampsToOne(t *testing.T) {
	results, err := RunAll([]string{"overhead"}, Options{Scale: 0.25, Seeds: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res := results[0]; res.PerSeed != nil || strings.Contains(res.String(), "seeds)") {
		t.Fatalf("Seeds 0 ran %d seeds, want clamped to 1", len(res.PerSeed))
	}
}

func TestRunSeedsUnknownID(t *testing.T) {
	if _, err := RunAll([]string{"nope"}, Options{Seeds: 2}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
