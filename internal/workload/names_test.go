package workload

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
	"repro/internal/rng"
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
// still byte-identical to the Sprintf form. Its directory is carried
// across creates, not divided out: create i and the getattr before it
// still address dirs[min(i/per, len(dirs)-1)], per = max(n/len(dirs),
// 1), with n a multiple of len(dirs) or not, fewer creates than
// directories, and a getattr falling on a directory boundary.
func TestCreateNamesMatchSprintf(t *testing.T) {
	tree := namespace.NewTree()
	var dirs []*namespace.Inode
	for _, name := range nameList("d", 3, "", 5) {
		d, err := tree.Mkdir(tree.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
	}
	for _, tc := range []struct{ client, n, statEvery, dirs int }{
		{7, 1, 0, 1}, {7, nameChunk, 0, 1}, {7, nameChunk + 1, 0, 1}, {123, 3*nameChunk - 1, 5, 1}, {1000, 200, 64, 1},
		{7, 100, 0, 3}, {7, 2, 0, 3}, {7, 97, 7, 4}, {7, 64, 8, 4}, {7, 65, 16, 5}, {7, 5, 1, 5},
	} {
		s := newCreates(dirs[:tc.dirs], tc.client, tc.n, tc.statEvery)
		per := max(tc.n/tc.dirs, 1)
		dirOf := func(i int) *namespace.Inode { return dirs[min(i/per, tc.dirs-1)] }
		i, stats := 0, 0
		for op, ok := s.Next(); ok; op, ok = s.Next() {
			if op.Kind == OpGetattr {
				if tc.statEvery == 0 || i == 0 || i%tc.statEvery != 0 || op.Target != dirOf(i) {
					t.Fatalf("%+v: getattr of %s before create %d", tc, op.Target.Path(), i)
				}
				stats++
				continue
			}
			if op.Kind != OpCreate || op.Parent != dirOf(i) {
				t.Fatalf("%+v: create %d is %v in %s, want a create in %s", tc, i, op.Kind, op.Parent.Path(), dirOf(i).Path())
			}
			if want := fmt.Sprintf("c%03d.f%07d", tc.client, i); op.Name != want {
				t.Fatalf("client %d create %d of %d named %q, want %q", tc.client, i, tc.n, op.Name, want)
			}
			i++
		}
		if i != tc.n {
			t.Fatalf("client %d: %d creates, want %d", tc.client, i, tc.n)
		}
		if tc.statEvery > 0 && stats != (tc.n-1)/tc.statEvery {
			t.Fatalf("%+v: %d getattrs, want one before every %dth create", tc, stats, tc.statEvery)
		}
	}
}

// TestNamesMatchSprintf: every name format a generator uses, built by
// nameSeq and nameList, is byte-identical to its Sprintf — for indices
// 0-200, around 10^width (where the name grows a digit inside a chunk)
// and past the pad width.
func TestNamesMatchSprintf(t *testing.T) {
	for _, f := range []struct {
		prefix string
		width  int
		suffix string
		format string
	}{
		{"client", 3, "", "client%03d"},     // MD, Zipf
		{"d", 3, "", "d%03d"},               // MD
		{"c042.f", 7, "", "c042.f%07d"},     // MD creates
		{"file", 6, "", "file%06d"},         // ReadStorm
		{"new0042_", 6, "", "new0042_%06d"}, // ReadStorm writes
		{"file", 5, "", "file%05d"},         // Zipf
		{"sec", 3, "", "sec%03d"},           // Web
		{"dir", 4, "", "dir%04d"},           // Web
		{"page", 6, ".html", "page%06d.html"},
		{"d", 4, "", "d%04d"}, // CNN
		{"img", 5, ".jpg", "img%05d.jpg"},
		{"cat", 2, "", "cat%02d"}, // NLP
		{"doc", 6, ".txt", "doc%06d.txt"},
	} {
		list := nameList(f.prefix, f.width, f.suffix, 201)
		for i, got := range list {
			if want := fmt.Sprintf(f.format, i); got != want {
				t.Fatalf("nameList(%q) name %d = %q, want %q", f.format, i, got, want)
			}
		}
		pow := 1
		for range f.width {
			pow *= 10
		}
		for _, r := range [][2]int{{0, 201}, {pow - 100, pow + 100}, {10*pow - 3, 10*pow + 3}} {
			s := newNameSeq(f.prefix, f.width, f.suffix, r[0], r[1])
			for i := r[0]; i < r[1]; i++ {
				if got, want := s.next(), fmt.Sprintf(f.format, i); got != want {
					t.Fatalf("nameSeq(%q) from %d: name %d = %q, want %q", f.format, r[0], i, got, want)
				}
			}
		}
	}
}

// TestReadStormWriteNames: a ReadStorm client's w-th create (from 1)
// is named fmt.Sprintf("new%04d_%06d", client, w), client offset
// included.
func TestReadStormWriteNames(t *testing.T) {
	g := NewReadStorm(ReadStormConfig{Files: 10, OpsPerClient: 400, WriteEvery: 2, ClientOffset: 7})
	specs, err := g.Setup(namespace.NewTree(), 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for c, spec := range specs {
		w := 0
		for op, ok := spec.Stream.Next(); ok; op, ok = spec.Stream.Next() {
			if op.Kind != OpCreate {
				continue
			}
			w++
			if want := fmt.Sprintf("new%04d_%06d", 7+c, w); op.Name != want {
				t.Fatalf("client %d write %d named %q, want %q", c, w, op.Name, want)
			}
		}
		if w != 200 {
			t.Fatalf("client %d: %d writes, want 200", c, w)
		}
	}
}
