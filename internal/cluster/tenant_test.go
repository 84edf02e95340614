package cluster

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// tenantManager builds a flat-rate manager for tests.
func tenantManager(rate, burst float64) *tenant.Manager {
	pol := tenant.DefaultPolicy()
	pol.Rate, pol.Burst = rate, burst
	return tenant.MustManager(pol)
}

// TestTenantAdmissionThrottles runs a skewed tenant mix under a tight
// flat policy with a per-tick audit: the big tenants must hit their
// buckets, every op must still complete, and the tenant invariant
// family must stay clean throughout.
func TestTenantAdmissionThrottles(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:      4,
		Clients:  16,
		Seed:     11,
		Workload: workload.DefaultTenants(4, 1.0),
		Tenancy:  tenantManager(400, 800),
		Audit:    aud,
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	tn := c.Tenancy()
	var throttled, admitted int64
	for i := 0; i < tn.N(); i++ {
		throttled += tn.Throttled(i)
		admitted += tn.Admitted(i)
	}
	if throttled == 0 {
		t.Fatal("tight buckets never throttled")
	}
	if admitted == 0 {
		t.Fatal("no ops were bucket-admitted")
	}
	// Per-tenant JCTs were recorded for every tenant.
	for i := 0; i < tn.N(); i++ {
		if c.Metrics().TenantJCTCount(i) == 0 {
			t.Fatalf("tenant %d finished no clients", i)
		}
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestTenantAdmissionThrottlesWB is the write-back variant: bucket
// charging happens at batch admission, serving happens from rank
// journals, and the same invariants must hold.
func TestTenantAdmissionThrottlesWB(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:      4,
		Clients:  16,
		Seed:     11,
		Workload: workload.DefaultTenants(4, 1.0),
		Tenancy:  tenantManager(400, 800),
		Batching: &BatchingConfig{BatchSize: 8, FlushEvery: 4},
		Audit:    aud,
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	tn := c.Tenancy()
	var throttled int64
	for i := 0; i < tn.N(); i++ {
		throttled += tn.Throttled(i)
	}
	if throttled == 0 {
		t.Fatal("tight buckets never throttled in write-back mode")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}
