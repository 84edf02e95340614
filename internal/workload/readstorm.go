package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// ReadStormConfig shapes a shared-directory read storm: one common
// directory of pre-existing files, with EVERY client issuing
// Zipf-distributed pure-metadata reads (getattr) over the same shared
// population. This is the workload class where migration fundamentally
// cannot help — the whole storm lands on one subtree, and a subtree
// can only live on one rank — so it is the showcase for lease-based
// read replicas, which let up to R-1 standby ranks serve the same
// subtree concurrently.
type ReadStormConfig struct {
	// Files is the shared-directory population.
	Files int
	// OpsPerClient is the number of reads each client performs.
	OpsPerClient int
	// WriteEvery mixes one create into the shared directory every this
	// many reads per client (0 = pure reads). Creates are writes, so
	// they invalidate any read leases on the directory — the knob
	// exists to exercise the write-revoke path under load.
	WriteEvery int
	// Dir is the shared directory's path (default "/readstorm/dir").
	// Multi-tenant mixes point each tenant's storm at its own subtree.
	Dir string
	// ClientOffset shifts the client indices baked into generated
	// create names. Sub-populations that share a namespace (tenant
	// mixes) must use disjoint offsets, or their create names collide.
	ClientOffset int
}

func (c *ReadStormConfig) defaults() {
	if c.Files == 0 {
		c.Files = 2000
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 12000
	}
	if c.Dir == "" {
		c.Dir = "/readstorm/dir"
	}
}

// ReadStorm is the shared-directory read-storm workload generator.
type ReadStorm struct{ cfg ReadStormConfig }

// NewReadStorm creates a shared-directory read-storm generator.
func NewReadStorm(cfg ReadStormConfig) *ReadStorm {
	cfg.defaults()
	return &ReadStorm{cfg: cfg}
}

// Name implements Generator.
func (g *ReadStorm) Name() string { return "ReadStorm" }

// Setup implements Generator: one common directory of Files files, with
// every client streaming Zipf-skewed getattrs over it.
func (g *ReadStorm) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	dir, err := tree.MkdirAll(g.cfg.Dir)
	if err != nil {
		return nil, err
	}
	files := make([]*namespace.Inode, g.cfg.Files)
	for f := 0; f < g.cfg.Files; f++ {
		in, err := tree.Create(dir, fmt.Sprintf("file%06d", f), 4096)
		if err != nil {
			return nil, err
		}
		files[f] = in
	}
	streams := make([]Stream, clients)
	for c := 0; c < clients; c++ {
		streams[c] = &zipfStats{
			pick: newZipfPicker(files, src.Fork(uint64(c)+10)),
			dir:  dir, ops: g.cfg.OpsPerClient, writeEvery: g.cfg.WriteEvery, client: g.cfg.ClientOffset + c,
		}
	}
	return jitterSpecs(streams, 0, 0, src.Fork(1)), nil
}

// zipfStats is the pure-metadata sibling of zipfReads: Zipf-distributed
// getattrs with no data-path bytes. With writeEvery > 0, every
// writeEvery-th op is instead a create into the shared directory (a
// lease-invalidating write).
type zipfStats struct {
	pick                                  zipfPicker
	dir                                   *namespace.Inode
	ops, done, writeEvery, client, writes int
}

func (s *zipfStats) Next() (Op, bool) {
	if s.done >= s.ops {
		return Op{}, false
	}
	s.done++
	if s.writeEvery > 0 && s.done%s.writeEvery == 0 {
		s.writes++
		return Op{
			Kind:   OpCreate,
			Parent: s.dir,
			Name:   fmt.Sprintf("new%04d_%06d", s.client, s.writes),
			Size:   4096,
		}, true
	}
	return Op{Kind: OpGetattr, Target: s.pick.next()}, true
}
