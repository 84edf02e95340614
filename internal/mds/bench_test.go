package mds

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
)

// benchServer builds a server plus a fixture tree and returns the
// governing entry and inode the benchmarks hammer. Capacity is huge so
// budget never saturates mid-iteration.
func benchServer(b testing.TB) (*Server, namespace.Entry, *namespace.Inode) {
	b.Helper()
	_, p, files := fixture(b)
	s := NewServer(0, 1<<30, 4, 0.5)
	s.BeginTick()
	e := p.GoverningEntry(files[0])
	return s, e, files[0]
}

// BenchmarkServe measures the full per-op serve path: budget, window
// counters and heat along the directory chain. one-file serves one
// inode over and over; tenants does the same with a 4-tenant heat split
// charged per op, as the sync engine does. same-parent serves a run of
// files three directories below their entry root, so the chain memo
// hits; alternating switches between two such parents every op, so it
// misses and walks.
func BenchmarkServe(b *testing.B) {
	run := func(b *testing.B, e namespace.Entry, files []*namespace.Inode, tenants int) {
		s := NewServer(0, 1<<30, 4, 0.5)
		s.EnableTenants(tenants)
		s.BeginTick()
		s.Serve(e, files[0], 0) // warm caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Serve(e, files[i%len(files)], 0)
			if tenants > 0 {
				s.AddTenantHeat(e.Key, i&3, 1)
			}
		}
	}
	b.Run("one-file", func(b *testing.B) {
		_, e, in := benchServer(b)
		run(b, e, []*namespace.Inode{in}, 0)
	})
	b.Run("tenants", func(b *testing.B) {
		_, e, in := benchServer(b)
		run(b, e, []*namespace.Inode{in}, 4)
	})
	tr := namespace.NewTree()
	c, _ := tr.MkdirAll("/a/b/c")
	d, _ := tr.MkdirAll("/a/b/d")
	var same, alt []*namespace.Inode
	for i := 0; i < 64; i++ {
		fc, _ := tr.Create(c, fmt.Sprintf("f%02d", i), 1)
		fd, _ := tr.Create(d, fmt.Sprintf("f%02d", i), 1)
		same, alt = append(same, fc), append(alt, fc, fd)
	}
	e := namespace.NewPartition(tr, 0).RootEntry()
	b.Run("same-parent", func(b *testing.B) { run(b, e, same, 0) })
	b.Run("alternating", func(b *testing.B) { run(b, e, alt, 0) })
}

// BenchmarkAddHeat isolates a write-back run's charge: the n-weighted
// key and directory-chain heat plus the fresh inodes' window counters.
func BenchmarkAddHeat(b *testing.B) {
	s, e, in := benchServer(b)
	s.Collector().ChargeRun(e.Key, in.Parent, 0, 8, 5, 2) // grow the directory tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Collector().ChargeRun(e.Key, in.Parent, 0, 8, 5, 2)
	}
}

// BenchmarkEndEpoch measures epoch close with a populated heat table;
// with lazy decay this is O(1) outside the periodic purge.
func BenchmarkEndEpoch(b *testing.B) {
	_, p, files := fixture(b)
	s := NewServer(0, 1<<30, 4, 0.5)
	s.BeginTick()
	for _, f := range files {
		s.Serve(p.GoverningEntry(f), f, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EndEpoch(10)
	}
}
