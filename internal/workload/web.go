package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// WebConfig shapes the web trace replay: an ordered request log over a
// static file population with Zipf popularity and a slowly drifting hot
// set (the FSU Apache trace spans 19 months of department traffic).
// Every client replays the same trace in order, offset in time
// (Table 1: 57.2% metadata ops).
type WebConfig struct {
	// Files is the file population (trace: 302k; scaled by default).
	Files int
	// DirFanout is the number of files per directory.
	DirFanout int
	// DirsPerSection groups directories under second-level sections
	// (a department web tree: /web/<section>/<dir>/<page>), giving the
	// dynamic balancers coarse subtrees to move while Dir-Hash pins the
	// fine-grained leaves.
	DirsPerSection int
	// RequestsPerClient is the length of the replayed trace.
	RequestsPerClient int
	// ZipfExponent controls the popularity skew.
	ZipfExponent float64
	// PhaseLen is the number of requests between hot-set rotations.
	PhaseLen int
	// PhaseShift is how many popularity ranks the hot set rotates per
	// phase (0 disables drift).
	PhaseShift int
	// MeanFileBytes is the average served-file size.
	MeanFileBytes int64
	// StartSpread staggers client start times over this many ticks.
	StartSpread int64
	// RateJitter varies per-client speed by +/- this fraction.
	RateJitter float64
}

func (c *WebConfig) defaults() {
	if c.Files == 0 {
		c.Files = 12000
	}
	if c.DirFanout == 0 {
		c.DirFanout = 40
	}
	if c.DirsPerSection == 0 {
		c.DirsPerSection = 12
	}
	if c.RequestsPerClient == 0 {
		c.RequestsPerClient = 8000
	}
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 0.9
	}
	if c.PhaseLen == 0 {
		c.PhaseLen = 2000
	}
	if c.PhaseShift == 0 {
		c.PhaseShift = 40
	}
	if c.MeanFileBytes == 0 {
		c.MeanFileBytes = 24 * 1024
	}
	if c.StartSpread == 0 {
		c.StartSpread = 40
	}
	if c.RateJitter == 0 {
		c.RateJitter = 0.1
	}
}

// Web is the web trace replay workload generator.
type Web struct{ cfg WebConfig }

// NewWeb creates a web trace replay generator.
func NewWeb(cfg WebConfig) *Web {
	cfg.defaults()
	return &Web{cfg: cfg}
}

// Name implements Generator.
func (g *Web) Name() string { return "Web" }

// Setup implements Generator: it builds /web/dir<i>/page<j>, generates
// one shared synthetic trace, and hands every client an in-order replay
// of it.
func (g *Web) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	root, err := tree.MkdirAll("/web")
	if err != nil {
		return nil, err
	}
	sizes := src.Fork(1)
	files := make([]*namespace.Inode, 0, g.cfg.Files)
	var section, dir *namespace.Inode
	filesPerSection := g.cfg.DirFanout * g.cfg.DirsPerSection
	for i := 0; i < g.cfg.Files; i++ {
		if i%filesPerSection == 0 {
			section, err = tree.Mkdir(root, fmt.Sprintf("sec%03d", i/filesPerSection))
			if err != nil {
				return nil, err
			}
		}
		if i%g.cfg.DirFanout == 0 {
			dir, err = tree.Mkdir(section, fmt.Sprintf("dir%04d", i/g.cfg.DirFanout))
			if err != nil {
				return nil, err
			}
		}
		size := g.cfg.MeanFileBytes/2 + sizes.Int63n(g.cfg.MeanFileBytes)
		in, err := tree.Create(dir, fmt.Sprintf("page%06d.html", i), size)
		if err != nil {
			return nil, err
		}
		files = append(files, in)
	}

	// One shared trace: Zipf-ranked picks through a fixed permutation
	// (so popularity is uncorrelated with creation order), with the hot
	// set rotating every PhaseLen requests.
	traceSrc := src.Fork(2)
	perm := traceSrc.Perm(g.cfg.Files)
	zipf := rng.NewZipf(traceSrc, g.cfg.ZipfExponent, g.cfg.Files)
	traceIdx := make([]int32, g.cfg.RequestsPerClient)
	for i := range traceIdx {
		phase := i / g.cfg.PhaseLen
		rank := (zipf.Next() + phase*g.cfg.PhaseShift) % g.cfg.Files
		traceIdx[i] = int32(perm[rank])
	}

	streams := make([]Stream, clients)
	for i := range streams {
		streams[i] = newWebReplay(files, traceIdx)
	}
	return jitterSpecs(streams, g.cfg.StartSpread, g.cfg.RateJitter, src.Fork(3)), nil
}

// newWebReplay returns one client's replay: per request one open with
// data, plus an extra path lookup on every third request (Apache-style
// deep-path resolution), yielding a ~57% metadata ratio.
func newWebReplay(files []*namespace.Inode, trace []int32) Stream {
	idx := 0
	return &seqStream{fill: func(ops []Op) []Op {
		if idx >= len(trace) {
			return ops
		}
		f := files[trace[idx]]
		if idx%3 == 0 {
			ops = append(ops, Op{Kind: OpLookup, Target: f})
		}
		ops = append(ops, Op{Kind: OpOpen, Target: f, DataSize: f.Size})
		idx++
		return ops
	}}
}
