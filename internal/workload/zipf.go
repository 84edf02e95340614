package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// ZipfConfig shapes the Filebench Zipfian read workload: each client
// owns a private directory of files and reads them with a Zipfian
// popularity (80% of requests touch 20% of files), the strongest
// temporal locality among the five workloads (Table 1: 50.0% metadata
// ops: one open + one data read per request).
type ZipfConfig struct {
	// FilesPerClient is the private-directory population (paper: 10000).
	FilesPerClient int
	// OpsPerClient is the number of reads each client performs.
	OpsPerClient int
	// Dir is the workload's root directory (default "/zipf").
	Dir string
	// ClientOffset shifts the client indices baked into directory
	// names. Sub-populations that share a root (tenant mixes) must use
	// disjoint offsets, or their directory names collide.
	ClientOffset int
}

func (c *ZipfConfig) defaults() {
	if c.FilesPerClient == 0 {
		c.FilesPerClient = 1000
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 12000
	}
	if c.Dir == "" {
		c.Dir = "/zipf"
	}
}

// Zipf is the Filebench Zipfian read workload generator.
type Zipf struct{ cfg ZipfConfig }

// NewZipf creates a Zipfian read generator.
func NewZipf(cfg ZipfConfig) *Zipf {
	cfg.defaults()
	return &Zipf{cfg: cfg}
}

// Name implements Generator.
func (g *Zipf) Name() string { return "Zipf" }

// Setup implements Generator: it builds /zipf/client<i>/file<j> and
// gives each client Zipf-distributed reads over its own directory.
func (g *Zipf) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	root, err := tree.MkdirAll(g.cfg.Dir)
	if err != nil {
		return nil, err
	}
	streams := make([]Stream, clients)
	for c := 0; c < clients; c++ {
		dir, err := tree.Mkdir(root, fmt.Sprintf("client%03d", g.cfg.ClientOffset+c))
		if err != nil {
			return nil, err
		}
		files := make([]*namespace.Inode, g.cfg.FilesPerClient)
		for f := 0; f < g.cfg.FilesPerClient; f++ {
			in, err := tree.Create(dir, fmt.Sprintf("file%05d", f), zipfFileBytes)
			if err != nil {
				return nil, err
			}
			files[f] = in
		}
		streams[c] = &zipfReads{pick: newZipfPicker(files, src.Fork(uint64(c)+10)), left: g.cfg.OpsPerClient}
	}
	return jitterSpecs(streams, 0, 0, src.Fork(1)), nil
}

// zipfPicker draws files by Zipf popularity (exponent zipfExponent).
// Popularity rank is decoupled from creation order by a random
// permutation, folded into ranked at setup so that a draw is one sample
// and one load.
type zipfPicker struct {
	ranked []*namespace.Inode // ranked[r] is the file of popularity rank r
	zipf   rng.Zipf
}

func newZipfPicker(files []*namespace.Inode, src *rng.Source) zipfPicker {
	perm := src.Perm(len(files))
	ranked := make([]*namespace.Inode, len(files))
	for r, f := range perm {
		ranked[r] = files[f]
	}
	return zipfPicker{ranked: ranked, zipf: *rng.NewZipf(src, zipfExponent, len(files))}
}

func (p *zipfPicker) next() *namespace.Inode { return p.ranked[p.zipf.Next()] }

// zipfReads is one Filebench client: left more opens, each of a
// Zipf-picked file with its data.
type zipfReads struct {
	pick zipfPicker
	left int
}

func (s *zipfReads) Next() (Op, bool) {
	if s.left <= 0 {
		return Op{}, false
	}
	s.left--
	f := s.pick.next()
	return Op{Kind: OpOpen, Target: f, DataSize: f.Size}, true
}
