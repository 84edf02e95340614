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

// BenchmarkCreateRound prices the namespace side of a rank lane's create
// path in the shape the engine drives it: 256 directories filling to
// 6 000 files each (the mdtest_create window: ~32 MB of name-index
// slots, so a probe is a cache and TLB miss), in rounds of 12 runs of
// 150 creates — per create one probe of the name, one Promise, and at
// the round's barrier one AdoptOrExisting. back-to-back probes a run's
// names in one loop before promising any, as engine.applyRun does;
// interleaved probes each name right before its promise. One iteration
// is one round; the tree is rebuilt, untimed, when full. On the 2-vCPU
// reference host both orders cost 180-260 ns a create and interleaved
// is, if anything, ahead: with only a Promise between two probes the
// core overlaps the misses by itself. The engine's gain from the
// back-to-back pass (EXPERIMENTS.md, "The create path") comes from the
// serve work that sits between two creates there, which is not
// namespace's to model.
func BenchmarkCreateRound(b *testing.B) {
	const dirs, perDir, runLen, runsPerRound = 256, 6000, 150, 12
	names := make([]string, perDir)
	hashes := make([]uint32, perDir)
	for i := range names {
		names[i] = fileName("c000.f", i)
		hashes[i] = HashName(names[i])
	}
	for _, mode := range []string{"back-to-back", "interleaved"} {
		b.Run(mode, func(b *testing.B) {
			backToBack := mode == "back-to-back"
			var (
				tr      *Tree
				ds      []*Inode
				arena   InodeArena
				run     int // runs since the rebuild; run r fills directory r%dirs
				probed  = make([]*Inode, runLen)
				creates = make([]*Inode, 0, runsPerRound*runLen)
			)
			for i := 0; i < b.N; i++ {
				if tr == nil || run+runsPerRound > dirs*perDir/runLen {
					b.StopTimer()
					tr, ds, run = NewTree(), ds[:0], 0
					for d := 0; d < dirs; d++ {
						dir, _ := tr.Mkdir(tr.Root(), fileName("d", d))
						ds = append(ds, dir)
					}
					b.StartTimer()
				}
				for j := 0; j < runsPerRound; j, run = j+1, run+1 {
					d, base := ds[run%dirs], run/dirs*runLen
					if backToBack {
						for k := range probed {
							probed[k] = d.ChildHashed(names[base+k], hashes[base+k])
						}
					}
					for k := 0; k < runLen; k++ {
						found := probed[k]
						if !backToBack {
							found = d.ChildHashed(names[base+k], hashes[base+k])
						}
						in, fresh, err := arena.Promise(d, names[base+k], hashes[base+k], 0)
						if found != nil || !fresh || err != nil {
							b.Fatalf("create %q in %s: found %v, fresh %v, err %v", names[base+k], d.Name, found, fresh, err)
						}
						creates = append(creates, in)
					}
				}
				for _, in := range creates {
					tr.AdoptOrExisting(in)
				}
				creates = creates[:0]
				arena.EndRound()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runsPerRound*runLen), "ns/create")
		})
	}
}
