package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/namespace"
	"repro/internal/rng"
)

func setup(t *testing.T, g Generator, clients int, seed uint64) (*namespace.Tree, []ClientSpec) {
	t.Helper()
	tree := namespace.NewTree()
	specs, err := g.Setup(tree, clients, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != clients {
		t.Fatalf("Setup returned %d specs, want %d", len(specs), clients)
	}
	return tree, specs
}

func drain(s Stream) []Op {
	var ops []Op
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

func TestCNNShapeAndRatio(t *testing.T) {
	g := NewCNN(CNNConfig{Dirs: 20, FilesPerDir: 10})
	tree, specs := setup(t, g, 3, 1)
	cnn, err := tree.Lookup("/cnn")
	if err != nil {
		t.Fatal(err)
	}
	if cnn.NumChildren() != 20 {
		t.Fatalf("dirs = %d", cnn.NumChildren())
	}
	if cnn.SubtreeInodes() != 1+20+200 {
		t.Fatalf("inodes = %d", cnn.SubtreeInodes())
	}
	stats := Measure(specs[0].Stream)
	ratio := stats.Ratio()
	// Paper: 78.1% metadata ops.
	if math.Abs(ratio-0.781) > 0.03 {
		t.Fatalf("CNN meta ratio = %.3f, want ~0.78", ratio)
	}
}

func TestCNNScanNeverRevisits(t *testing.T) {
	g := NewCNN(CNNConfig{Dirs: 5, FilesPerDir: 8})
	_, specs := setup(t, g, 1, 2)
	seen := make(map[namespace.Ino]int)
	lastSeen := make(map[namespace.Ino]int)
	for i, op := range drain(specs[0].Stream) {
		if op.Target == nil || op.Target.IsDir {
			continue
		}
		seen[op.Target.Ino]++
		if prev, ok := lastSeen[op.Target.Ino]; ok && i-prev > 4 {
			t.Fatalf("file %d revisited after a gap: scan must be single-pass", op.Target.Ino)
		}
		lastSeen[op.Target.Ino] = i
	}
	if len(seen) != 40 {
		t.Fatalf("scan covered %d files, want 40", len(seen))
	}
}

func TestCNNClientJitter(t *testing.T) {
	g := NewCNN(CNNConfig{Dirs: 5, FilesPerDir: 4})
	_, specs := setup(t, g, 50, 3)
	starts := make(map[int64]bool)
	for _, sp := range specs {
		starts[sp.StartTick] = true
		if sp.RateScale < 0.8 || sp.RateScale > 1.2 {
			t.Fatalf("rate scale %v out of jitter band", sp.RateScale)
		}
	}
	if len(starts) < 10 {
		t.Fatalf("start times not spread: %d distinct", len(starts))
	}
}

func TestNLPShapeAndRatio(t *testing.T) {
	g := NewNLP(NLPConfig{Dirs: 14, FilesPerDir: 20})
	tree, specs := setup(t, g, 2, 4)
	nlp, _ := tree.Lookup("/nlp")
	if nlp.NumChildren() != 14 {
		t.Fatalf("NLP dirs = %d, want 14", nlp.NumChildren())
	}
	ratio := Measure(specs[0].Stream).Ratio()
	// Paper: 92.8% metadata ops.
	if math.Abs(ratio-0.928) > 0.02 {
		t.Fatalf("NLP meta ratio = %.3f, want ~0.93", ratio)
	}
}

func TestNLPSinglePassScan(t *testing.T) {
	g := NewNLP(NLPConfig{Dirs: 2, FilesPerDir: 5})
	_, specs := setup(t, g, 1, 5)
	dataOps := 0
	visits := make(map[namespace.Ino]int)
	var order []namespace.Ino
	for _, op := range drain(specs[0].Stream) {
		if op.DataSize > 0 {
			dataOps++
		}
		if op.Target != nil && !op.Target.IsDir {
			if visits[op.Target.Ino] == 0 {
				order = append(order, op.Target.Ino)
			}
			visits[op.Target.Ino]++
		}
	}
	if dataOps != 10 {
		t.Fatalf("data reads = %d, want one per file", dataOps)
	}
	if len(order) != 10 {
		t.Fatalf("scan covered %d files, want 10", len(order))
	}
	for ino, n := range visits {
		// Single pass: every file costs exactly nlpMetaOpsPerFile accesses.
		if n != 13 {
			t.Fatalf("file %d visited %d times, want 13", ino, n)
		}
	}
}

func TestWebRatioAndLocality(t *testing.T) {
	g := NewWeb(WebConfig{Files: 500, RequestsPerClient: 3000})
	_, specs := setup(t, g, 2, 6)
	ops := drain(specs[0].Stream)
	var m MetaStats
	counts := make(map[namespace.Ino]int)
	for _, op := range ops {
		m.MetaOps++
		if op.DataSize > 0 {
			m.DataOps++
			counts[op.Target.Ino]++
		}
	}
	// Paper: 57.2% metadata ops.
	if math.Abs(m.Ratio()-0.572) > 0.02 {
		t.Fatalf("Web meta ratio = %.3f, want ~0.57", m.Ratio())
	}
	// Zipf popularity: the most popular file should absorb far more
	// than the uniform share.
	maxN := 0
	for _, n := range counts {
		if n > maxN {
			maxN = n
		}
	}
	if maxN < 3000/500*5 {
		t.Fatalf("web trace lacks skew: top file only %d requests", maxN)
	}
}

func TestWebClientsShareTrace(t *testing.T) {
	g := NewWeb(WebConfig{Files: 200, RequestsPerClient: 500})
	_, specs := setup(t, g, 2, 7)
	a := drain(specs[0].Stream)
	b := drain(specs[1].Stream)
	if len(a) != len(b) {
		t.Fatalf("clients replay different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target != b[i].Target || a[i].Kind != b[i].Kind {
			t.Fatal("clients must replay the identical trace in order")
		}
	}
}

func TestZipfPrivateDirsAndSkew(t *testing.T) {
	g := NewZipf(ZipfConfig{FilesPerClient: 300, OpsPerClient: 6000})
	tree, specs := setup(t, g, 3, 8)
	root, _ := tree.Lookup("/zipf")
	if root.NumChildren() != 3 {
		t.Fatalf("client dirs = %d", root.NumChildren())
	}
	// Each client only touches its own directory.
	dir0, _ := tree.Lookup("/zipf/client000")
	ops := drain(specs[0].Stream)
	if len(ops) != 6000 {
		t.Fatalf("ops = %d", len(ops))
	}
	counts := make(map[namespace.Ino]int)
	for _, op := range ops {
		if op.Target.Parent != dir0 {
			t.Fatal("client 0 escaped its private directory")
		}
		if op.DataSize <= 0 {
			t.Fatal("zipf reads must carry data")
		}
		counts[op.Target.Ino]++
	}
	// 80/20 shape: top 20% of files get the large majority of requests.
	var all []int
	for _, n := range counts {
		all = append(all, n)
	}
	top := 0
	for _, n := range all {
		if n >= 6000/300*3 {
			top += n
		}
	}
	if float64(top)/6000 < 0.5 {
		t.Fatalf("zipf reads insufficiently skewed (hot mass %.2f)", float64(top)/6000)
	}
	ratio := Measure(specs[1].Stream).Ratio()
	if ratio != 0.5 {
		t.Fatalf("Zipf meta ratio = %.3f, want 0.50", ratio)
	}
}

func TestMDCreatesAndRatio(t *testing.T) {
	g := NewMD(MDConfig{CreatesPerClient: 100})
	tree, specs := setup(t, g, 2, 9)
	ops := drain(specs[0].Stream)
	if len(ops) != 100 {
		t.Fatalf("creates = %d", len(ops))
	}
	names := make(map[string]bool)
	for _, op := range ops {
		if op.Kind != OpCreate || op.Parent == nil || op.DataSize != 0 {
			t.Fatal("MD must be pure creates without data")
		}
		if names[op.Name] {
			t.Fatalf("duplicate create name %q", op.Name)
		}
		names[op.Name] = true
	}
	if Measure(specs[1].Stream).Ratio() != 1.0 {
		t.Fatal("MD meta ratio must be 100%")
	}
	d0, _ := tree.Lookup("/md/client000")
	if d0.NumChildren() != 0 {
		t.Fatal("MD directories must start empty")
	}
}

// paperMixed is the paper's mixture at default configurations.
func paperMixed() *Mixed {
	return NewMixed(NewCNN(CNNConfig{}), NewNLP(NLPConfig{}), NewWeb(WebConfig{}), NewZipf(ZipfConfig{}))
}

func TestMixedGroups(t *testing.T) {
	g := paperMixed()
	tree, specs := setup(t, g, 8, 10)
	if len(specs) != 8 {
		t.Fatal("specs")
	}
	for _, p := range []string{"/cnn", "/nlp", "/web", "/zipf"} {
		if _, err := tree.Lookup(p); err != nil {
			t.Fatalf("mixed setup missing %s", p)
		}
	}
	// Group assignment is contiguous and balanced.
	if g.GroupOf(0, 8) != 0 || g.GroupOf(1, 8) != 0 || g.GroupOf(2, 8) != 1 || g.GroupOf(7, 8) != 3 {
		t.Fatal("group mapping")
	}
	// Clients in group 3 (zipf) only touch /zipf.
	for _, op := range drain(specs[7].Stream)[:100] {
		if op.Target != nil && !strings.HasPrefix(op.Target.Path(), "/zipf/") {
			t.Fatal("zipf-group client escaped /zipf")
		}
	}
}

func TestMixedTooFewClients(t *testing.T) {
	g := paperMixed()
	tree := namespace.NewTree()
	if _, err := g.Setup(tree, 2, rng.New(1)); err == nil {
		t.Fatal("expected error for fewer clients than groups")
	}
}

func TestSetupDeterministic(t *testing.T) {
	for _, gen := range []func() Generator{
		func() Generator { return NewCNN(CNNConfig{Dirs: 5, FilesPerDir: 4}) },
		func() Generator { return NewWeb(WebConfig{Files: 100, RequestsPerClient: 300}) },
		func() Generator { return NewZipf(ZipfConfig{FilesPerClient: 50, OpsPerClient: 200}) },
	} {
		t1 := namespace.NewTree()
		s1, err := gen().Setup(t1, 2, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		t2 := namespace.NewTree()
		s2, err := gen().Setup(t2, 2, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		a := drain(s1[0].Stream)
		b := drain(s2[0].Stream)
		if len(a) != len(b) {
			t.Fatal("nondeterministic op count")
		}
		for i := range a {
			pathA, pathB := "", ""
			if a[i].Target != nil {
				pathA = a[i].Target.Path()
			}
			if b[i].Target != nil {
				pathB = b[i].Target.Path()
			}
			if pathA != pathB || a[i].Kind != b[i].Kind {
				t.Fatalf("nondeterministic op %d", i)
			}
		}
		if s1[0].StartTick != s2[0].StartTick || s1[0].RateScale != s2[0].RateScale {
			t.Fatal("nondeterministic jitter")
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpLookup: "lookup", OpGetattr: "getattr", OpOpen: "open",
		OpReaddir: "readdir", OpCreate: "create",
	} {
		if k.String() != want {
			t.Fatalf("kind %d = %q", k, k.String())
		}
	}
	if OpKind(42).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestNewOpList(t *testing.T) {
	s := NewOpList([]Op{{Kind: OpLookup}, {Kind: OpOpen, DataSize: 5}})
	m := Measure(s)
	if m.MetaOps != 2 || m.DataOps != 1 {
		t.Fatalf("measure: %+v", m)
	}
	if m.Ratio() != 2.0/3.0 {
		t.Fatalf("ratio = %v", m.Ratio())
	}
	if (MetaStats{}).Ratio() != 0 {
		t.Fatal("empty ratio")
	}
}

// BenchmarkSetup prices one Setup of each Mixed constituent as the
// benchmark's mixed_rebalance builds it (experiment.MakeWorkload at
// scale 2; 100 clients, so 25 per group), each into a fresh tree.
// Medians of five alternating runs on the 2-vCPU reference host
// (go1.24.0), ms/op (allocs/op):
//
//	      parent 66fe960   change
//	CNN    8.04 (21 790)   1.98 (2 266)
//	NLP    3.95 (19 113)   1.11 (311)
//	Web   11.99 (53 316)   6.25 (4 984)
//	Zipf   8.71 (44 122)   2.96 (526)
func BenchmarkSetup(b *testing.B) {
	for _, g := range []Generator{
		NewCNN(CNNConfig{Dirs: 300, FilesPerDir: 64}),
		NewNLP(NLPConfig{FilesPerDir: 800}),
		NewWeb(WebConfig{Files: 24000, RequestsPerClient: 40000}),
		NewZipf(ZipfConfig{OpsPerClient: 80000}),
	} {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Setup(namespace.NewTree(), 25, rng.New(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
