//go:build !race

// Steady-state allocation contracts for the hot resolution path. The
// assertions use testing.AllocsPerRun, which is meaningless under the
// race detector (the runtime inserts extra allocations), so this file
// is excluded from `make race` / `make check`.

package namespace

import "testing"

func TestResolverEntryZeroAlloc(t *testing.T) {
	_, p, leaf := benchPartition(t)
	r := NewResolver(p)
	r.Entry(leaf) // warm the slot
	if n := testing.AllocsPerRun(100, func() { r.Entry(leaf) }); n != 0 {
		t.Fatalf("Resolver.Entry allocates %.1f per call in the steady state, want 0", n)
	}
}

func TestResolveChainIntoZeroAlloc(t *testing.T) {
	_, p, leaf := benchPartition(t)
	buf := make([]MDSID, 0, 8)
	buf, _ = p.ResolveChainInto(buf, leaf) // size the buffer
	buf = buf[:0]
	if n := testing.AllocsPerRun(100, func() {
		chain, _ := p.ResolveChainInto(buf, leaf)
		buf = chain[:0]
	}); n != 0 {
		t.Fatalf("ResolveChainInto allocates %.1f per call with a warm buffer, want 0", n)
	}
}

// TestRawSizeFragNoAllocs: sizing a split fragment walks the
// directory's children in place. The per-epoch audit sizes every entry
// twice, so a child slice per call was its largest cost on a directory
// with hundreds of thousands of files.
func TestRawSizeFragNoAllocs(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "big")
	for i := 0; i < 10000; i++ {
		if _, err := tr.Create(d, fileName("f", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPartition(tr, 0)
	l, r, _ := p.SplitEntry(p.Carve(d).Key)
	if nl, nr := p.GovernedInodes(l.Key), p.GovernedInodes(r.Key); nl == 0 || nr == 0 || nl+nr != 10000 {
		t.Fatalf("halves govern %d + %d inodes, want two non-empty halves of 10000", nl, nr)
	}
	if n := testing.AllocsPerRun(20, func() {
		p.GovernedInodes(l.Key)
		p.UnvisitedIn(r.Key)
	}); n != 0 {
		t.Fatalf("GovernedInodes + UnvisitedIn on a split fragment allocate %.1f times, want 0", n)
	}
}
