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
	// RequestsPerClient is the length of the replayed trace.
	RequestsPerClient int
}

func (c *WebConfig) defaults() {
	if c.Files == 0 {
		c.Files = 12000
	}
	if c.RequestsPerClient == 0 {
		c.RequestsPerClient = 8000
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
	const filesPerSection = webDirFanout * webDirsPerSection
	for i := 0; i < g.cfg.Files; i++ {
		if i%filesPerSection == 0 {
			section, err = tree.Mkdir(root, fmt.Sprintf("sec%03d", i/filesPerSection))
			if err != nil {
				return nil, err
			}
		}
		if i%webDirFanout == 0 {
			dir, err = tree.Mkdir(section, fmt.Sprintf("dir%04d", i/webDirFanout))
			if err != nil {
				return nil, err
			}
		}
		size := webFileBytes/2 + sizes.Int63n(webFileBytes)
		in, err := tree.Create(dir, fmt.Sprintf("page%06d.html", i), size)
		if err != nil {
			return nil, err
		}
		files = append(files, in)
	}

	// One shared trace: Zipf-ranked picks through a fixed permutation
	// (so popularity is uncorrelated with creation order), with the hot
	// set rotating every webPhaseLen requests.
	traceSrc := src.Fork(2)
	perm := traceSrc.Perm(g.cfg.Files)
	zipf := rng.NewZipf(traceSrc, webZipfExponent, g.cfg.Files)
	traceIdx := make([]int32, g.cfg.RequestsPerClient)
	for i := range traceIdx {
		phase := i / webPhaseLen
		rank := (zipf.Next() + phase*webPhaseShift) % g.cfg.Files
		traceIdx[i] = int32(perm[rank])
	}

	streams := make([]Stream, clients)
	for i := range streams {
		streams[i] = newWebReplay(files, traceIdx)
	}
	return jitterSpecs(streams, webStartSpread, webRateJitter, src.Fork(3)), nil
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
