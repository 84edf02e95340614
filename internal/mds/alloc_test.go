//go:build !race

// Steady-state allocation contract for the serve path: once a key's
// statistics record, its directories' cells and the ancestor chain
// exist, charging further accesses must not allocate. AllocsPerRun is
// meaningless under the race detector, so this file is excluded from
// `make race` / `make check`.

package mds

import "testing"

// TestServeZeroAllocSteadyState: a served sync op — ServeDeferVisit,
// plus its tenant attribution when tenants are on — allocates nothing
// once its record, directory cells and chain exist.
func TestServeZeroAllocSteadyState(t *testing.T) {
	for _, tenants := range []int{0, 4} {
		s, e, in := benchServer(t)
		s.EnableTenants(tenants)
		serve := func() {
			s.ServeDeferVisit(e, in, 0, false)
			s.AddTenantHeat(e.Key, 1, 1)
		}
		serve() // materialize the record, directory cells and chain
		if n := testing.AllocsPerRun(100, serve); n != 0 {
			t.Fatalf("tenants %d: a served op allocates %.1f in the steady state, want 0", tenants, n)
		}
	}
}

// TestAddHeatZeroAllocSteadyState: a write-back run's charge — heat,
// fresh-run window counters and tenant attribution — allocates nothing
// in the steady state.
func TestAddHeatZeroAllocSteadyState(t *testing.T) {
	for _, tenants := range []int{0, 4} {
		s, e, in := benchServer(t)
		s.EnableTenants(tenants)
		run := func() {
			s.Collector().ChargeRun(e.Key, in.Parent, 0, 8, 5, 2)
			s.AddTenantHeat(e.Key, 1, 8)
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Fatalf("tenants %d: a run charge allocates %.1f in the steady state, want 0", tenants, n)
		}
	}
}
