package workload

import (
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
	off := g.cfg.ClientOffset
	clientDirs := newNameSeq("client", 3, "", off, off+clients)
	var subDirs []string
	if g.cfg.DirsPerClient > 1 {
		subDirs = nameList("d", 3, "", g.cfg.DirsPerClient)
	}
	streams := make([]Stream, clients)
	for c := 0; c < clients; c++ {
		dir, err := tree.Mkdir(root, clientDirs.next())
		if err != nil {
			return nil, err
		}
		dirs := []*namespace.Inode{dir}
		if subDirs != nil {
			dirs = dirs[:0]
			for _, name := range subDirs {
				sub, err := tree.Mkdir(dir, name)
				if err != nil {
					return nil, err
				}
				dirs = append(dirs, sub)
			}
		}
		streams[c] = newCreates(dirs, off+c, g.cfg.CreatesPerClient, g.cfg.StatEvery)
	}
	return jitterSpecs(streams, 0, 0, src.Fork(1)), nil
}

// creates is one MD client's stream. Creates fill the directories
// sequentially (per files each, remainder in the last); every statEvery
// creates a getattr on the working directory is interleaved. Create i
// is named fmt.Sprintf("c%03d.f%07d", client, i), a nameChunk of names
// per allocation. The working directory dirs[d], d = min(i/per,
// len(dirs)-1), is carried rather than divided out per op: d moves on
// when i reaches dirEnd, except from the last directory.
type creates struct {
	dirs                 []*namespace.Inode
	d, dirEnd            int
	i, n, per            int
	statEvery, sinceStat int
	names                nameSeq
}

func newCreates(dirs []*namespace.Inode, client, n, statEvery int) Stream {
	prefix := "c" + string(appendPadded(nil, client, 3)) + ".f"
	per := max(n/len(dirs), 1)
	return &creates{dirs: dirs, dirEnd: per, n: n, per: per, statEvery: statEvery, names: newNameSeq(prefix, 7, "", 0, n)}
}

// Draw implements Stream.
func (s *creates) Draw(op *Op) bool {
	if s.i >= s.n {
		return false
	}
	if s.statEvery > 0 && s.sinceStat >= s.statEvery {
		s.sinceStat = 0
		op.set(OpGetattr, s.dirs[s.d], nil, "", 0, 0)
		return true
	}
	op.set(OpCreate, nil, s.dirs[s.d], s.names.next(), 0, 0)
	s.i++
	s.sinceStat++
	if s.i == s.dirEnd && s.d < len(s.dirs)-1 {
		s.d++
		s.dirEnd += s.per
	}
	return true
}

func (s *creates) Next() (op Op, ok bool) { ok = s.Draw(&op); return }
