package workload

import (
	"fmt"
	"math"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// Tenants partitions the client population into N tenants, each
// running its own generator over its own subtree, and tags every
// resulting ClientSpec with the owning tenant's index. Tenant sizes
// are Zipf-skewed (tenant t's weight is 1/(t+1)^Skew, every tenant
// gets at least one client), matching the long-tailed tenant-size
// distributions container platforms report.
//
// The per-tenant generators come from a factory, so tenant mixes
// reuse the existing generators (pointed at per-tenant directories
// via their Dir knob and de-collided via ClientOffset) instead of
// copy-pasting them.
type Tenants struct {
	cfg     TenantsConfig
	factory TenantFactory
}

// TenantFactory builds tenant t's generator given its client count and
// the global index of its first client. Implementations must thread
// clientOffset into the generator's ClientOffset knob whenever the
// generator bakes client indices into names, and should give each
// tenant its own Dir so subtrees — and therefore balancing decisions —
// stay per-tenant.
type TenantFactory func(t, clients, clientOffset int) Generator

// TenantsConfig shapes the tenant partition.
type TenantsConfig struct {
	// Tenants is the number of tenants (at least 1).
	Tenants int
	// Skew is the Zipf exponent of the tenant-size distribution, finite
	// and >= 0: 0 gives equal shares, larger values concentrate clients
	// in the low-numbered tenants.
	Skew float64
	// Counts, when set, fixes each tenant's client count explicitly
	// instead of deriving sizes from Skew. Its length must match
	// Tenants (or set it), every count must be at least 1, and the sum
	// must equal the cluster's client count.
	Counts []int
}

func (c *TenantsConfig) defaults() {
	if c.Tenants < 1 {
		c.Tenants = len(c.Counts)
	}
	if c.Tenants < 1 {
		c.Tenants = 1
	}
}

// NewTenants creates a tenant-partitioned workload over the factory.
func NewTenants(cfg TenantsConfig, factory TenantFactory) *Tenants {
	cfg.defaults()
	if factory == nil {
		panic("workload: tenants needs a factory")
	}
	return &Tenants{cfg: cfg, factory: factory}
}

// DefaultTenants builds the standard multi-tenant mixture: tenant t
// runs {Zipf, MDtest, ReadStorm}[t%3] inside its own /tenant<t>
// subtree, with Zipf-skewed tenant sizes. This is what the simulator's
// -tenants flag runs.
func DefaultTenants(tenants int, skew float64) *Tenants {
	return NewTenants(TenantsConfig{Tenants: tenants, Skew: skew},
		func(t, clients, off int) Generator {
			dir := fmt.Sprintf("/tenant%02d", t)
			switch t % 3 {
			case 0:
				return NewZipf(ZipfConfig{Dir: dir + "/zipf", ClientOffset: off})
			case 1:
				return NewMD(MDConfig{Dir: dir + "/md", ClientOffset: off})
			default:
				return NewReadStorm(ReadStormConfig{Dir: dir + "/storm", ClientOffset: off, WriteEvery: 50})
			}
		})
}

// Name implements Generator.
func (g *Tenants) Name() string { return fmt.Sprintf("Tenants(%d)", g.cfg.Tenants) }

// Partition returns the per-tenant client counts for a total
// population: weights 1/(t+1)^Skew normalized over clients, every
// tenant at least 1, largest-first rounding absorbed by tenant 0.
func (g *Tenants) Partition(clients int) ([]int, error) {
	n := g.cfg.Tenants
	if clients < n {
		return nil, fmt.Errorf("workload: %d clients cannot cover %d tenants", clients, n)
	}
	if len(g.cfg.Counts) > 0 {
		if len(g.cfg.Counts) != n {
			return nil, fmt.Errorf("workload: %d tenant counts for %d tenants", len(g.cfg.Counts), n)
		}
		sum := 0
		for t, c := range g.cfg.Counts {
			if c < 1 {
				return nil, fmt.Errorf("workload: tenant %d count %d < 1", t, c)
			}
			sum += c
		}
		if sum != clients {
			return nil, fmt.Errorf("workload: tenant counts sum %d != %d clients", sum, clients)
		}
		return append([]int(nil), g.cfg.Counts...), nil
	}
	if !(0 <= g.cfg.Skew && g.cfg.Skew <= math.MaxFloat64) {
		return nil, fmt.Errorf("workload: tenant skew must be finite and >= 0, got %v", g.cfg.Skew)
	}
	weights := make([]float64, n)
	var sum float64
	for t := range weights {
		weights[t] = 1 / math.Pow(float64(t+1), g.cfg.Skew)
		sum += weights[t]
	}
	counts := make([]int, n)
	assigned := 0
	for t := range counts {
		c := int(float64(clients) * weights[t] / sum)
		if c < 1 {
			c = 1
		}
		counts[t] = c
		assigned += c
	}
	// Fix up rounding drift: trim from the largest tenants (never below
	// one client), then hand any surplus to tenant 0.
	for assigned > clients {
		biggest := 0
		for t := range counts {
			if counts[t] > counts[biggest] {
				biggest = t
			}
		}
		if counts[biggest] == 1 {
			break
		}
		counts[biggest]--
		assigned--
	}
	counts[0] += clients - assigned
	return counts, nil
}

// Setup implements Generator: it partitions the clients, runs each
// tenant's generator over its contiguous client range, and tags the
// returned specs with the tenant index.
func (g *Tenants) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	counts, err := g.Partition(clients)
	if err != nil {
		return nil, err
	}
	specs := make([]ClientSpec, 0, clients)
	off := 0
	for t, count := range counts {
		gen := g.factory(t, count, off)
		sub, err := gen.Setup(tree, count, src.Fork(uint64(t)+100))
		if err != nil {
			return nil, fmt.Errorf("workload: setup tenant %d (%s): %w", t, gen.Name(), err)
		}
		if len(sub) != count {
			return nil, fmt.Errorf("workload: tenant %d generator returned %d specs, want %d", t, len(sub), count)
		}
		for i := range sub {
			sub[i].Tenant = t
		}
		specs = append(specs, sub...)
		off += count
	}
	return specs, nil
}
