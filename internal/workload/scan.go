package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// seqStream is a Stream built from a refill closure that appends the
// next batch of ops (typically one file's worth) to the stream's own
// buffer, or nothing at end of job. Next copies ops out by value, so
// the one buffer is reused by every refill.
type seqStream struct {
	fill func(buf []Op) []Op
	buf  []Op
	pos  int
}

func (s *seqStream) Next() (Op, bool) {
	for s.pos >= len(s.buf) {
		s.buf = s.fill(s.buf[:0])
		if len(s.buf) == 0 {
			return Op{}, false
		}
		s.pos = 0
	}
	op := s.buf[s.pos]
	s.pos++
	return op, true
}

// CNNConfig shapes the CNN image pre-processing workload: each client
// scans the whole ImageNet-like dataset once, in directory order,
// converting the namespace into a record file. Files are never
// re-visited by the same client (Table 1: 78.1% metadata ops).
type CNNConfig struct {
	// Dirs is the number of class directories (ImageNet: 1000).
	Dirs int
	// FilesPerDir is the number of images per directory (ImageNet:
	// 1280 on average; scaled down by default).
	FilesPerDir int
}

func (c *CNNConfig) defaults() {
	if c.Dirs == 0 {
		c.Dirs = 200
	}
	if c.FilesPerDir == 0 {
		c.FilesPerDir = 24
	}
}

// CNN is the CNN image pre-processing workload generator.
type CNN struct{ cfg CNNConfig }

// NewCNN creates a CNN workload generator.
func NewCNN(cfg CNNConfig) *CNN {
	cfg.defaults()
	return &CNN{cfg: cfg}
}

// Name implements Generator.
func (g *CNN) Name() string { return "CNN" }

// Setup implements Generator: it builds /cnn/d<i>/img<j> and gives each
// client a full-scan stream over the shared dataset.
func (g *CNN) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	root, err := tree.MkdirAll("/cnn")
	if err != nil {
		return nil, err
	}
	sizes := src.Fork(1)
	files := make([]*namespace.Inode, 0, g.cfg.Dirs*g.cfg.FilesPerDir)
	for d := 0; d < g.cfg.Dirs; d++ {
		dir, err := tree.Mkdir(root, fmt.Sprintf("d%04d", d))
		if err != nil {
			return nil, err
		}
		for f := 0; f < g.cfg.FilesPerDir; f++ {
			size := cnnFileBytes/2 + sizes.Int63n(cnnFileBytes)
			in, err := tree.Create(dir, fmt.Sprintf("img%05d.jpg", f), size)
			if err != nil {
				return nil, err
			}
			files = append(files, in)
		}
	}
	streams := make([]Stream, clients)
	for i := range streams {
		streams[i] = newCNNScan(files)
	}
	return jitterSpecs(streams, scanStartSpread, scanRateJitter, src.Fork(2)), nil
}

// newCNNScan returns one client's scan: per directory one readdir, per
// file lookup+getattr+open(data), and an extra getattr on every second
// file (record-file bookkeeping), yielding a ~78% metadata ratio.
func newCNNScan(files []*namespace.Inode) Stream {
	idx := 0
	var lastDir *namespace.Inode
	return &seqStream{fill: func(ops []Op) []Op {
		if idx >= len(files) {
			return ops
		}
		f := files[idx]
		if f.Parent != lastDir {
			lastDir = f.Parent
			ops = append(ops, Op{Kind: OpReaddir, Target: f.Parent})
		}
		ops = append(ops,
			Op{Kind: OpLookup, Target: f},
			Op{Kind: OpGetattr, Target: f},
			Op{Kind: OpOpen, Target: f, DataSize: f.Size},
		)
		if idx%2 == 0 {
			ops = append(ops, Op{Kind: OpGetattr, Target: f})
		}
		idx++
		return ops
	}}
}

// NLPConfig shapes the NLP training workload: the THUTC-like corpus is
// a few folders of very many tiny files, scanned exactly once per
// client. Each tiny file costs a pile of metadata interactions
// (lookup, stat, open, xattr/ACL checks) relative to its 2.8 KB of
// data, which is why 92.8% of its ops are metadata — and, like CNN,
// files are never re-visited, which defeats popularity-based balancing.
type NLPConfig struct {
	// Dirs is the number of category folders (THUTC corpus: 14).
	Dirs int
	// FilesPerDir is the number of text files per folder (corpus:
	// ~60k; scaled down by default).
	FilesPerDir int
}

func (c *NLPConfig) defaults() {
	if c.Dirs == 0 {
		c.Dirs = 14
	}
	if c.FilesPerDir == 0 {
		c.FilesPerDir = 400
	}
}

// NLP is the NLP training workload generator.
type NLP struct{ cfg NLPConfig }

// NewNLP creates an NLP workload generator.
func NewNLP(cfg NLPConfig) *NLP {
	cfg.defaults()
	return &NLP{cfg: cfg}
}

// Name implements Generator.
func (g *NLP) Name() string { return "NLP" }

// Setup implements Generator.
func (g *NLP) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	root, err := tree.MkdirAll("/nlp")
	if err != nil {
		return nil, err
	}
	sizes := src.Fork(1)
	files := make([]*namespace.Inode, 0, g.cfg.Dirs*g.cfg.FilesPerDir)
	for d := 0; d < g.cfg.Dirs; d++ {
		dir, err := tree.Mkdir(root, fmt.Sprintf("cat%02d", d))
		if err != nil {
			return nil, err
		}
		for f := 0; f < g.cfg.FilesPerDir; f++ {
			size := nlpFileBytes/2 + sizes.Int63n(nlpFileBytes)
			in, err := tree.Create(dir, fmt.Sprintf("doc%06d.txt", f), size)
			if err != nil {
				return nil, err
			}
			files = append(files, in)
		}
	}
	streams := make([]Stream, clients)
	for i := range streams {
		streams[i] = newNLPScan(files)
	}
	return jitterSpecs(streams, scanStartSpread, scanRateJitter, src.Fork(2)), nil
}

// newNLPScan returns one client's single-pass scan: per file,
// nlpMetaOpsPerFile metadata operations (path resolution, stats,
// permission checks, the open itself) and one tiny data read.
func newNLPScan(files []*namespace.Inode) Stream {
	idx := 0
	var lastDir *namespace.Inode
	return &seqStream{fill: func(ops []Op) []Op {
		if idx >= len(files) {
			return ops
		}
		f := files[idx]
		if f.Parent != lastDir {
			lastDir = f.Parent
			ops = append(ops, Op{Kind: OpReaddir, Target: f.Parent})
		}
		ops = append(ops, Op{Kind: OpLookup, Target: f})
		for fileOps := 1; fileOps < nlpMetaOpsPerFile-1; fileOps++ {
			ops = append(ops, Op{Kind: OpGetattr, Target: f})
		}
		ops = append(ops, Op{Kind: OpOpen, Target: f, DataSize: f.Size})
		idx++
		return ops
	}}
}
