//go:build !race

// Steady-state allocation contracts for the hot resolution path. The
// assertions use testing.AllocsPerRun, which is meaningless under the
// race detector (the runtime inserts extra allocations), so this file
// is excluded from `make race` / `make check`.

package namespace

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

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

// TestCreateHeapAlloc is the per-file heap contract of the create path:
// 200 k carve+adopt calls into 4 directories. In name order each inode
// leaves at most 72 bytes of live heap: its 64-byte numbered slot and
// its 4-byte child-list entry (4.4 B with the slice's spare capacity),
// and no name index. Shuffled, every create probes the index, 4-byte
// slots at most 3/4 full (10.5 B here), for at most 82 bytes. The
// names are the caller's: made beforehand and kept alive to the end, so
// they cancel out of the difference.
func TestCreateHeapAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shuffled bool
		perInode float64
	}{{"in_order", false, 72}, {"shuffled", true, 82}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200000
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("f%07d", i)
			}
			if tc.shuffled {
				rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			tr := NewTree()
			var dirs [4]*Inode
			for i := range dirs {
				dirs[i], _ = tr.Mkdir(tr.Root(), fileName("d", i))
			}
			var arena InodeArena
			for i, name := range names {
				in, err := arena.NewFile(dirs[i%len(dirs)], name, 1)
				if err != nil {
					t.Fatal(err)
				}
				tr.AdoptOrExisting(in)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(tr)
			runtime.KeepAlive(names)
			if b := float64(ms.HeapAlloc-before) / n; b > tc.perInode {
				t.Fatalf("%.1f B of live heap per created inode, want <= %.0f", b, tc.perInode)
			}
		})
	}
}
