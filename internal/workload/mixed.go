package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// Mixed runs several workloads side by side, partitioning the clients
// into equal groups, one per constituent workload — the paper's §4.4
// setup (100 clients in four groups: CNN, NLP, Web, Zipf).
type Mixed struct {
	gens []Generator
}

// NewMixed creates a mixture over the given generators (at least one).
func NewMixed(gens ...Generator) *Mixed {
	if len(gens) == 0 {
		panic("workload: mixed needs at least one generator")
	}
	return &Mixed{gens: gens}
}

// Name implements Generator.
func (g *Mixed) Name() string { return "Mixed" }

// Groups returns the constituent generators.
func (g *Mixed) Groups() []Generator { return g.gens }

// GroupOf returns the index of the constituent workload that client i
// out of n runs, matching the assignment Setup makes.
func (g *Mixed) GroupOf(i, n int) int {
	per := n / len(g.gens)
	if per == 0 {
		return i % len(g.gens)
	}
	grp := i / per
	if grp >= len(g.gens) {
		grp = len(g.gens) - 1
	}
	return grp
}

// Setup implements Generator: clients are split into contiguous equal
// groups; group k runs generator k.
func (g *Mixed) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	if clients < len(g.gens) {
		return nil, fmt.Errorf("workload: %d clients cannot cover %d groups", clients, len(g.gens))
	}
	specs := make([]ClientSpec, 0, clients)
	per := clients / len(g.gens)
	for k, gen := range g.gens {
		count := per
		if k == len(g.gens)-1 {
			count = clients - per*(len(g.gens)-1)
		}
		sub, err := gen.Setup(tree, count, src.Fork(uint64(k)+100))
		if err != nil {
			return nil, fmt.Errorf("workload: setup %s: %w", gen.Name(), err)
		}
		specs = append(specs, sub...)
	}
	return specs, nil
}
