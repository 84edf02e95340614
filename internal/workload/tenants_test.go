package workload

import (
	"math"
	"testing"

	"repro/internal/namespace"
	"repro/internal/rng"
)

func TestTenantsPartition(t *testing.T) {
	g := NewTenants(TenantsConfig{Tenants: 4, Skew: 0}, func(tn, n, off int) Generator {
		return NewZipf(ZipfConfig{})
	})
	counts, err := g.Partition(16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for tn, c := range counts {
		if c < 1 {
			t.Errorf("tenant %d got %d clients", tn, c)
		}
		total += c
	}
	if total != 16 {
		t.Fatalf("partition sums to %d, want 16", total)
	}
	skewed := NewTenants(TenantsConfig{Tenants: 4, Skew: 1.2}, nil2)
	counts, err = skewed.Partition(40)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] <= counts[3] {
		t.Errorf("skewed partition not decreasing: %v", counts)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 40 {
		t.Fatalf("skewed partition sums to %d, want 40", sum)
	}
	if _, err := skewed.Partition(3); err == nil {
		t.Error("fewer clients than tenants must fail")
	}
	// A NaN skew used to hand tenant 0 nearly every client, and a
	// negative one was quietly read as 0.
	for _, skew := range []float64{math.NaN(), math.Inf(1), -2} {
		if _, err := NewTenants(TenantsConfig{Tenants: 4, Skew: skew}, nil2).Partition(40); err == nil {
			t.Errorf("skew %v must fail", skew)
		}
	}
}

// nil2 is a trivial factory for partition-only tests.
func nil2(tn, n, off int) Generator { return NewZipf(ZipfConfig{}) }

func TestTenantsExplicitCounts(t *testing.T) {
	g := NewTenants(TenantsConfig{Counts: []int{12, 2, 1, 1}}, nil2)
	counts, err := g.Partition(16)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{12, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("explicit counts %v, want %v", counts, want)
		}
	}
	if _, err := g.Partition(15); err == nil {
		t.Error("count sum mismatch must fail")
	}
	if _, err := NewTenants(TenantsConfig{Tenants: 3, Counts: []int{8, 8}}, nil2).Partition(16); err == nil {
		t.Error("count length mismatch must fail")
	}
	if _, err := NewTenants(TenantsConfig{Counts: []int{16, 0}}, nil2).Partition(16); err == nil {
		t.Error("zero tenant count must fail")
	}
}

func TestTenantsSetupTagsAndUniqueness(t *testing.T) {
	tree := namespace.NewTree()
	g := DefaultTenants(3, 1.0)
	specs, err := g.Setup(tree, 12, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("got %d specs, want 12", len(specs))
	}
	counts, _ := g.Partition(12)
	want, i := 0, 0
	for _, sp := range specs {
		for i >= counts[want] {
			i -= counts[want]
			want++
		}
		if sp.Tenant != want {
			t.Fatalf("spec tagged tenant %d, want %d (counts %v)", sp.Tenant, want, counts)
		}
		i++
	}
	// Draining every stream must not collide on create names: the tree
	// would reject a duplicate create, so just drain a bounded prefix.
	for _, sp := range specs {
		for k := 0; k < 100; k++ {
			if _, ok := sp.Stream.Next(); !ok {
				break
			}
		}
	}
}

func TestClientOffsetDisambiguatesNames(t *testing.T) {
	tree := namespace.NewTree()
	// Two sub-populations sharing ONE directory: without disjoint
	// offsets their create names would collide.
	a := NewMDShared(MDSharedConfig{Dir: "/shared", CreatesPerClient: 5, ClientOffset: 0})
	b := NewMDShared(MDSharedConfig{Dir: "/shared", CreatesPerClient: 5, ClientOffset: 2})
	sa, err := a.Setup(tree, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Setup(tree, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, specs := range [][]ClientSpec{sa, sb} {
		for _, sp := range specs {
			for {
				op, ok := sp.Stream.Next()
				if !ok {
					break
				}
				if op.Kind != OpCreate {
					continue
				}
				if seen[op.Name] {
					t.Fatalf("duplicate create name %q across sub-populations", op.Name)
				}
				seen[op.Name] = true
			}
		}
	}
	if len(seen) != 20 {
		t.Fatalf("drained %d unique creates, want 20", len(seen))
	}
}
