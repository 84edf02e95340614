//go:build !race

// Steady-state allocation contract for the serve path: once the trace
// window counters, heat cells, and ancestor chain exist for an inode,
// serving further accesses to it must not allocate. AllocsPerRun is
// meaningless under the race detector, so this file is excluded from
// `make race` / `make check`.

package mds

import "testing"

func TestServeZeroAllocSteadyState(t *testing.T) {
	s, e, in := benchServer(t)
	s.Serve(e, in, 0) // materialize counters, heat cells, chain cache
	if n := testing.AllocsPerRun(100, func() { s.Serve(e, in, 0) }); n != 0 {
		t.Fatalf("Serve allocates %.1f per op in the steady state, want 0", n)
	}
}

func TestAddHeatZeroAllocSteadyState(t *testing.T) {
	s, e, in := benchServer(t)
	s.heat.charge(e.Key, in.Parent, 1, 1)
	if n := testing.AllocsPerRun(100, func() { s.heat.charge(e.Key, in.Parent, 1, 1) }); n != 0 {
		t.Fatalf("heat charge allocates %.1f per op in the steady state, want 0", n)
	}
}
