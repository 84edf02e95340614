package namespace

import "testing"

// benchPartition builds a deep tree with a few split points so that
// resolution walks several levels and the partition has non-trivial
// entries: /a/b/c/d with 50 files in d, /a delegated to MDS 1 and
// /a/b/c to MDS 2.
func benchPartition(b testing.TB) (*Tree, *Partition, *Inode) {
	b.Helper()
	tr := NewTree()
	a, _ := tr.Mkdir(tr.Root(), "a")
	bb, _ := tr.Mkdir(a, "b")
	cc, _ := tr.Mkdir(bb, "c")
	dd, _ := tr.Mkdir(cc, "d")
	var leaf *Inode
	for i := 0; i < 50; i++ {
		f, err := tr.Create(dd, fileName("f", i), 1)
		if err != nil {
			b.Fatal(err)
		}
		leaf = f
	}
	p := NewPartition(tr, 0)
	ea := p.Carve(a)
	p.SetAuth(ea.Key, 1)
	ec := p.Carve(cc)
	p.SetAuth(ec.Key, 2)
	return tr, p, leaf
}

// BenchmarkGoverningEntry is the uncached per-op resolution the serve
// path used before the resolver cache: a parent walk per call.
func BenchmarkGoverningEntry(b *testing.B) {
	_, p, leaf := benchPartition(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.GoverningEntry(leaf)
	}
}

// BenchmarkResolverEntry is the cached replacement: one version check
// and one slice index per call in the steady state.
func BenchmarkResolverEntry(b *testing.B) {
	_, p, leaf := benchPartition(b)
	r := NewResolver(p)
	r.Entry(leaf) // warm the slot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Entry(leaf)
	}
}

// BenchmarkResolveChain allocates a fresh chain per call (a nil
// buffer: the pre-PR3 relay-path behaviour).
func BenchmarkResolveChain(b *testing.B) {
	_, p, leaf := benchPartition(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.ResolveChainInto(nil, leaf)
	}
}

// BenchmarkResolveChainInto reuses a caller-owned buffer, the way the
// cluster relay path calls it.
func BenchmarkResolveChainInto(b *testing.B) {
	_, p, leaf := benchPartition(b)
	buf := make([]MDSID, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, _ := p.ResolveChainInto(buf, leaf)
		buf = chain[:0]
	}
}
