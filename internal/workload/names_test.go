package workload

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
)

func TestAppendPaddedMatchesSprintf(t *testing.T) {
	cases := []struct{ n, width int }{
		{0, 7}, {1, 7}, {9, 7}, {10, 7}, {9999999, 7}, {10000000, 7},
		{123456789, 7}, {0, 0}, {0, 1}, {42, 2}, {42, 1}, {42, 0},
	}
	for _, c := range cases {
		got := string(appendPadded(nil, c.n, c.width))
		want := fmt.Sprintf("%0*d", c.width, c.n)
		if got != want {
			t.Errorf("appendPadded(%d, width %d) = %q, want %q", c.n, c.width, got, want)
		}
	}
	// And as used by the creates stream: appended after a prefix.
	got := string(appendPadded([]byte("c007.f"), 123, 7))
	if want := fmt.Sprintf("c%03d.f%07d", 7, 123); got != want {
		t.Errorf("prefixed form = %q, want %q", got, want)
	}
}

// TestCreateNamesMatchSprintf: the creates stream builds its names a
// chunk at a time and hands out substrings; across chunk boundaries,
// with a short last chunk and with getattrs interleaved, name i is
// still byte-identical to the Sprintf form.
func TestCreateNamesMatchSprintf(t *testing.T) {
	dirs := []*namespace.Inode{namespace.NewTree().Root()}
	for _, tc := range []struct{ client, n, statEvery int }{
		{7, 1, 0}, {7, nameChunk, 0}, {7, nameChunk + 1, 0}, {123, 3*nameChunk - 1, 5}, {1000, 200, 64},
	} {
		s := newCreates(dirs, tc.client, tc.n, tc.statEvery)
		i := 0
		for op, ok := s.Next(); ok; op, ok = s.Next() {
			if op.Kind != OpCreate {
				continue
			}
			if want := fmt.Sprintf("c%03d.f%07d", tc.client, i); op.Name != want {
				t.Fatalf("client %d create %d of %d named %q, want %q", tc.client, i, tc.n, op.Name, want)
			}
			i++
		}
		if i != tc.n {
			t.Fatalf("client %d: %d creates, want %d", tc.client, i, tc.n)
		}
	}
}
