package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// MDConfig shapes the MDtest create workload: each client owns an
// initially empty private directory and creates empty files into it as
// fast as it can (Table 1: 100% metadata ops; the paper runs it
// metadata-only by convention).
type MDConfig struct {
	// CreatesPerClient is the number of files each client creates
	// (paper: 100000; scaled by default).
	CreatesPerClient int
	// DirsPerClient spreads each client's creates across this many
	// private subdirectories instead of one flat directory (MDtest's
	// branching-factor knob: -b/-I shape). The creates walk the
	// subdirectories sequentially, filling one before moving on, so a
	// write-back client's batches still form long same-directory runs.
	// 0 or 1 keeps the single flat directory.
	DirsPerClient int
	// StatEvery inserts a getattr on the working directory every k
	// creates (MDtest's stat phase interleaved, create-heavy mix). The
	// stat targets the directory, not the just-created file, so op
	// streams stay independent of unadopted creates. 0 disables.
	StatEvery int
	// Dir is the workload's root directory (default "/md").
	Dir string
	// ClientOffset shifts the client indices baked into directory and
	// create names. Sub-populations that share a root (tenant mixes)
	// must use disjoint offsets, or their names collide.
	ClientOffset int
}

func (c *MDConfig) defaults() {
	if c.CreatesPerClient == 0 {
		c.CreatesPerClient = 4000
	}
	if c.DirsPerClient < 1 {
		c.DirsPerClient = 1
	}
	if c.StatEvery < 0 {
		c.StatEvery = 0
	}
	if c.Dir == "" {
		c.Dir = "/md"
	}
}

// MD is the MDtest create workload generator.
type MD struct{ cfg MDConfig }

// NewMD creates an MDtest create generator.
func NewMD(cfg MDConfig) *MD {
	cfg.defaults()
	return &MD{cfg: cfg}
}

// Name implements Generator.
func (g *MD) Name() string { return "MD" }

// Setup implements Generator: it builds one empty private directory per
// client under /md and streams create ops into it.
func (g *MD) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
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
		dirs := []*namespace.Inode{dir}
		if g.cfg.DirsPerClient > 1 {
			dirs = dirs[:0]
			for d := 0; d < g.cfg.DirsPerClient; d++ {
				sub, err := tree.Mkdir(dir, fmt.Sprintf("d%03d", d))
				if err != nil {
					return nil, err
				}
				dirs = append(dirs, sub)
			}
		}
		streams[c] = newCreates(dirs, g.cfg.ClientOffset+c, g.cfg.CreatesPerClient, g.cfg.StatEvery)
	}
	return jitterSpecs(streams, 0, 0, src.Fork(1)), nil
}

// nameChunk is how many create names one allocation holds.
const nameChunk = 64

func newCreates(dirs []*namespace.Inode, client, n, statEvery int) Stream {
	// One op per refill. Names are built nameChunk at a time into one
	// buffer, converted to a string once and handed out as substrings —
	// one allocation per 64 creates for the strings the tree stores,
	// instead of a Sprintf (or even a conversion) per op. The names are
	// byte-identical to fmt.Sprintf("c%03d.f%07d", client, i).
	// Creates fill the directories sequentially (n/len(dirs) files
	// each, remainder in the last); every statEvery creates a getattr
	// on the working directory is interleaved.
	i := 0
	per := n
	if len(dirs) > 1 {
		per = n / len(dirs)
		if per < 1 {
			per = 1
		}
	}
	sinceStat := 0
	prefix := fmt.Sprintf("c%03d.f", client)
	var (
		scratch []byte
		chunk   string             // names i-i%nameChunk onward, concatenated
		ends    [nameChunk + 1]int // name k of the chunk is chunk[ends[k]:ends[k+1]]
	)
	return &seqStream{fill: func(buf []Op) []Op {
		if i >= n {
			return buf
		}
		d := i / per
		if d >= len(dirs) {
			d = len(dirs) - 1
		}
		if statEvery > 0 && sinceStat >= statEvery {
			sinceStat = 0
			return append(buf, Op{Kind: OpGetattr, Target: dirs[d]})
		}
		k := i % nameChunk
		if k == 0 {
			scratch = scratch[:0]
			for j := 0; j < nameChunk && i+j < n; j++ {
				scratch = appendPadded(append(scratch, prefix...), i+j, 7)
				ends[j+1] = len(scratch)
			}
			chunk = string(scratch)
		}
		i++
		sinceStat++
		return append(buf, Op{
			Kind:   OpCreate,
			Parent: dirs[d],
			Name:   chunk[ends[k]:ends[k+1]],
		})
	}}
}
