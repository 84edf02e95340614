package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// leaves returns the files under dir in creation order, depth levels
// of directories down.
func leaves(dir *namespace.Inode, depth int) []*namespace.Inode {
	if depth == 0 {
		return dir.Children()
	}
	var out []*namespace.Inode
	for _, d := range dir.Children() {
		out = append(out, leaves(d, depth-1)...)
	}
	return out
}

// The reference scans: each file's ops built as a fresh slice, the way
// the generators did before they appended into the stream's one buffer.
// They return the whole stream a client must see.

func refCNN(files []*namespace.Inode) []Op {
	var all []Op
	var lastDir *namespace.Inode
	for idx, f := range files {
		var ops []Op
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
		all = append(all, ops...)
	}
	return all
}

func refNLP(files []*namespace.Inode) []Op {
	var all []Op
	var lastDir *namespace.Inode
	for _, f := range files {
		var ops []Op
		if f.Parent != lastDir {
			lastDir = f.Parent
			ops = append(ops, Op{Kind: OpReaddir, Target: f.Parent})
		}
		ops = append(ops, Op{Kind: OpLookup, Target: f})
		for fileOps := 1; fileOps < nlpMetaOpsPerFile-1; fileOps++ {
			ops = append(ops, Op{Kind: OpGetattr, Target: f})
		}
		ops = append(ops, Op{Kind: OpOpen, Target: f, DataSize: f.Size})
		all = append(all, ops...)
	}
	return all
}

func refWeb(files []*namespace.Inode, trace []int32) []Op {
	var all []Op
	for idx, t := range trace {
		f := files[t]
		var ops []Op
		if idx%3 == 0 {
			ops = append(ops, Op{Kind: OpLookup, Target: f})
		}
		ops = append(ops, Op{Kind: OpOpen, Target: f, DataSize: f.Size})
		all = append(all, ops...)
	}
	return all
}

// refZipfPicks returns n files drawn the way a Zipf client draws them:
// a permutation of files, then an inverse-CDF draw over a table built
// as rng.NewZipf builds it, searched by bisection here rather than
// through rng.Zipf.
func refZipfPicks(files []*namespace.Inode, n int, src *rng.Source) []*namespace.Inode {
	perm := src.Perm(len(files))
	cum := make([]float64, len(files))
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	picks := make([]*namespace.Inode, n)
	for d := range picks {
		u := src.Float64()
		lo, hi := 0, len(cum)-1
		for lo < hi {
			if mid := (lo + hi) / 2; cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		picks[d] = files[perm[lo]]
	}
	return picks
}

// TestScanStreamsMatchReference: CNN, NLP and Web clients yield op for
// op what the fresh-slice reference yields — the readdir at every
// directory change included — and Zipf and ReadStorm clients what a
// bisection over their popularity table picks; then each ends.
func TestScanStreamsMatchReference(t *testing.T) {
	const clients, seed = 3, 11
	check := func(t *testing.T, specs []ClientSpec, wantFor func(c int) []Op) {
		t.Helper()
		for c, sp := range specs {
			want := wantFor(c)
			if len(want) == 0 {
				t.Fatal("empty reference")
			}
			got := drain(sp.Stream)
			if len(got) != len(want) {
				t.Fatalf("client %d: %d ops, reference %d", c, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("client %d op %d: %+v, reference %+v", c, i, got[i], want[i])
				}
			}
			if _, ok := sp.Stream.Next(); ok {
				t.Fatalf("client %d: stream yields past its end", c)
			}
		}
	}
	t.Run("CNN", func(t *testing.T) {
		tree, specs := setup(t, NewCNN(CNNConfig{Dirs: 5, FilesPerDir: 3}), clients, seed)
		root, _ := tree.Lookup("/cnn")
		want := refCNN(leaves(root, 1))
		readdirs := 0
		for _, op := range want {
			if op.Kind == OpReaddir {
				readdirs++
			}
		}
		if readdirs != 5 {
			t.Fatalf("reference has %d readdirs, want one per directory", readdirs)
		}
		check(t, specs, func(int) []Op { return want })
	})
	t.Run("NLP", func(t *testing.T) {
		tree, specs := setup(t, NewNLP(NLPConfig{Dirs: 3, FilesPerDir: 4}), clients, seed)
		root, _ := tree.Lookup("/nlp")
		want := refNLP(leaves(root, 1))
		check(t, specs, func(int) []Op { return want })
	})
	t.Run("Web", func(t *testing.T) {
		// Two sections and three hot-set phases.
		cfg := WebConfig{Files: 600, RequestsPerClient: 2*webPhaseLen + 500}
		tree, specs := setup(t, NewWeb(cfg), clients, seed)
		root, _ := tree.Lookup("/web")
		// The shared trace, drawn as Web.Setup draws it: the second fork
		// of the setup source (the first sizes the files).
		src := rng.New(seed)
		src.Fork(1)
		traceSrc := src.Fork(2)
		perm := traceSrc.Perm(cfg.Files)
		zipf := rng.NewZipf(traceSrc, webZipfExponent, cfg.Files)
		trace := make([]int32, cfg.RequestsPerClient)
		for i := range trace {
			trace[i] = int32(perm[(zipf.Next()+i/webPhaseLen*webPhaseShift)%cfg.Files])
		}
		want := refWeb(leaves(root, 2), trace)
		check(t, specs, func(int) []Op { return want })
	})
	// Each client's source is the setup source's fork c+10, taken in
	// client order as Setup takes them.
	t.Run("Zipf", func(t *testing.T) {
		const files, ops = 40, 500
		tree, specs := setup(t, NewZipf(ZipfConfig{FilesPerClient: files, OpsPerClient: ops}), clients, seed)
		setupSrc := rng.New(seed)
		check(t, specs, func(c int) []Op {
			dir, _ := tree.Lookup(fmt.Sprintf("/zipf/client%03d", c))
			want := make([]Op, ops)
			for i, f := range refZipfPicks(dir.Children(), ops, setupSrc.Fork(uint64(c)+10)) {
				want[i] = Op{Kind: OpOpen, Target: f, DataSize: f.Size}
			}
			return want
		})
	})
	t.Run("ReadStorm", func(t *testing.T) {
		const ops, writeEvery, offset = 500, 7, 20
		cfg := ReadStormConfig{Files: 60, OpsPerClient: ops, WriteEvery: writeEvery, ClientOffset: offset}
		tree, specs := setup(t, NewReadStorm(cfg), clients, seed)
		dir, _ := tree.Lookup("/readstorm/dir")
		files := dir.Children()
		setupSrc := rng.New(seed)
		check(t, specs, func(c int) []Op {
			picks := refZipfPicks(files, ops, setupSrc.Fork(uint64(c)+10))
			var want []Op
			for done := 1; done <= ops; done++ {
				if done%writeEvery == 0 {
					want = append(want, Op{Kind: OpCreate, Parent: dir, Size: 4096,
						Name: fmt.Sprintf("new%04d_%06d", offset+c, done/writeEvery)})
				} else {
					want = append(want, Op{Kind: OpGetattr, Target: picks[0]})
					picks = picks[1:]
				}
			}
			return want
		})
	})
}

// steadyGens are the six generators whose streams run in steady state:
// the CNN, NLP and Web scans and MD's creates refill a seqStream, the
// Zipf and ReadStorm draws are streams of their own. Each is sized so
// that one client's stream outlasts any measurement below.
var steadyGens = map[string]Generator{
	"CNN":       NewCNN(CNNConfig{Dirs: 40, FilesPerDir: 500}),
	"NLP":       NewNLP(NLPConfig{Dirs: 4, FilesPerDir: 5000}),
	"Web":       NewWeb(WebConfig{Files: 2000, RequestsPerClient: 200000}),
	"Zipf":      NewZipf(ZipfConfig{FilesPerClient: 500, OpsPerClient: 1 << 30}),
	"ReadStorm": NewReadStorm(ReadStormConfig{Files: 500, OpsPerClient: 1 << 30}),
	"MD":        NewMD(MDConfig{CreatesPerClient: 1 << 30, StatEvery: 64}),
}

// steadyStream builds the named generator's namespace in tree and
// returns its one client's stream.
func steadyStream(tb testing.TB, name string, tree *namespace.Tree) Stream {
	tb.Helper()
	specs, err := steadyGens[name].Setup(tree, 1, rng.New(3))
	if err != nil {
		tb.Fatal(err)
	}
	return specs[0].Stream
}

var sinkOp Op

// BenchmarkSeqStreamNext prices one drawn op for a many-ops-per-file
// scan and for a Zipf client. Medians of five alternating runs on the
// 2-vCPU reference host (go1.24.0), 0 B/op throughout:
//
//	       parent 42249c9  parent 6c8fc30  change
//	NLP    104.4 (143 B)   20.8            21.0
//	Zipf    63.4           63.0            20.6 (guide table, no closure)
func BenchmarkSeqStreamNext(b *testing.B) {
	b.Run("NLP", func(b *testing.B) {
		tree := namespace.NewTree()
		s := steadyStream(b, "NLP", tree)
		root, _ := tree.Lookup("/nlp")
		files := leaves(root, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ok bool
			if sinkOp, ok = s.Next(); !ok {
				s = newNLPScan(files) // scan the corpus again
			}
		}
	})
	b.Run("Zipf", func(b *testing.B) {
		s := steadyStream(b, "Zipf", namespace.NewTree())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkOp, _ = s.Next()
		}
	})
}
