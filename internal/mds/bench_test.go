package mds

import (
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

// BenchmarkServe measures the full per-op serve path: budget, trace
// collector, and heat accounting with its ancestor walk.
func BenchmarkServe(b *testing.B) {
	s, e, in := benchServer(b)
	s.Serve(e, in, 0) // warm caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Serve(e, in, 0)
	}
}

// BenchmarkAddHeat isolates the heat accounting (subtree counter bump
// plus the directory-chain walk).
func BenchmarkAddHeat(b *testing.B) {
	s, e, in := benchServer(b)
	s.addHeat(e.Key, in, false) // grow the directory table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.addHeat(e.Key, in, false)
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
