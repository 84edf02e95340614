package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/namespace"
	"repro/internal/rng"
)

const sampleTrace = `# comment line

0 lookup /web/a.html 0
0 open /web/a.html 2048
1 open /web/b.html 1024
0 readdir /web
1 create /md/c0/f1 0
1 create /md/c0/f2 0
`

func TestParseTraceBasics(t *testing.T) {
	tf, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tf.Clients() != 2 {
		t.Fatalf("clients = %d", tf.Clients())
	}
	tree := namespace.NewTree()
	specs, err := tf.Setup(tree, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-created files exist with the open's byte size.
	a, err := tree.Lookup("/web/a.html")
	if err != nil {
		t.Fatal("pre-created file missing")
	}
	_ = a
	// Client 0: lookup, open (2048 bytes), readdir.
	ops := drain(specs[0].Stream)
	if len(ops) != 3 {
		t.Fatalf("client0 ops = %d", len(ops))
	}
	if ops[0].Kind != OpLookup || ops[1].Kind != OpOpen || ops[2].Kind != OpReaddir {
		t.Fatalf("client0 kinds: %v %v %v", ops[0].Kind, ops[1].Kind, ops[2].Kind)
	}
	if ops[1].DataSize != 2048 {
		t.Fatalf("open data = %d", ops[1].DataSize)
	}
	// Client 1: open + two creates into /md/c0 (parent pre-created).
	ops = drain(specs[1].Stream)
	if len(ops) != 3 {
		t.Fatalf("client1 ops = %d", len(ops))
	}
	if ops[1].Kind != OpCreate || ops[1].Parent.Path() != "/md/c0" || ops[1].Name != "f1" {
		t.Fatalf("create op: %+v", ops[1])
	}
}

// traceErrorCases are traces ParseTrace must reject.
var traceErrorCases = []string{
	"",                       // empty
	"0 lookup",               // too few fields
	"x lookup /a",            // bad client
	"0 frobnicate /a",        // unknown op
	"0 lookup relative/path", // not absolute
	"0 open /a notanumber",   // bad size
	"300000000 getattr /a",   // one op, 300 M clients
	"0 getattr /a\n3 getattr /b\n1 getattr /c\n", // client 2 has no op
}

func TestParseTraceErrors(t *testing.T) {
	for _, c := range traceErrorCases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Fatalf("trace %q should fail to parse", c)
		}
	}
	// A gap in the client ids names the first id missing and the line
	// that claimed the highest.
	_, err := ParseTrace(strings.NewReader("0 getattr /a\n3 getattr /b\n1 getattr /c\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "no line has client 2") {
		t.Fatalf("sparse client ids: got %v, want line 2 and missing client 2 named", err)
	}
}

func TestTraceSetupClientMismatch(t *testing.T) {
	tf, err := ParseTrace(strings.NewReader("0 lookup /a/f 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Setup(namespace.NewTree(), 5, rng.New(1)); err == nil {
		t.Fatal("client-count mismatch must error")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	// Export a real workload to the trace format and replay it: the
	// replayed op streams must match kind/path/data op for op.
	gen := NewZipf(ZipfConfig{FilesPerClient: 30, OpsPerClient: 100})

	build := func() (*namespace.Tree, []ClientSpec) {
		tree := namespace.NewTree()
		specs, err := gen.Setup(tree, 2, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return tree, specs
	}

	_, exportSpecs := build()
	var buf strings.Builder
	if err := WriteTrace(&buf, exportSpecs); err != nil {
		t.Fatal(err)
	}

	tf, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replayTree := namespace.NewTree()
	replaySpecs, err := tf.Setup(replayTree, tf.Clients(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}

	_, origSpecs := build()
	for c := range origSpecs {
		orig := drain(origSpecs[c].Stream)
		replay := drain(replaySpecs[c].Stream)
		if len(orig) != len(replay) {
			t.Fatalf("client %d: %d ops vs %d replayed", c, len(orig), len(replay))
		}
		for i := range orig {
			if orig[i].Kind != replay[i].Kind {
				t.Fatalf("client %d op %d kind %v vs %v", c, i, orig[i].Kind, replay[i].Kind)
			}
			if orig[i].Target != nil && orig[i].Target.Path() != replay[i].Target.Path() {
				t.Fatalf("client %d op %d path %q vs %q", c, i,
					orig[i].Target.Path(), replay[i].Target.Path())
			}
			if orig[i].DataSize != replay[i].DataSize {
				t.Fatalf("client %d op %d data %d vs %d", c, i, orig[i].DataSize, replay[i].DataSize)
			}
		}
	}
}

func TestTraceCreateRoundTrip(t *testing.T) {
	gen := NewMD(MDConfig{CreatesPerClient: 25})
	tree := namespace.NewTree()
	specs, err := gen.Setup(tree, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, specs); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replayTree := namespace.NewTree()
	replaySpecs, err := tf.Setup(replayTree, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sp := range replaySpecs {
		for {
			op, ok := sp.Stream.Next()
			if !ok {
				break
			}
			if op.Kind != OpCreate {
				t.Fatal("MD replay must be creates")
			}
			// Materialize so later ops resolving the tree keep working.
			if _, err := replayTree.Create(op.Parent, op.Name, op.Size); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	if total != 50 {
		t.Fatalf("replayed %d creates, want 50", total)
	}
}

// FuzzParseTrace feeds ParseTrace arbitrary bytes: it must error or
// return a trace that Setup accepts or rejects — never panics on — and
// whose streams then drain.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(sampleTrace))
	// The shape of the cluster tests' createTrace: stats between creates
	// of fresh names and of names a later getattr makes Setup pre-create.
	f.Add([]byte("0 getattr /tr/c0/base 0\n0 create /tr/c0/new0 0\n0 open /tr/c0/base 64\n" +
		"1 create /tr/c1/old0 0\n1 getattr /tr/c1/old0 0\n"))
	for _, c := range traceErrorCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tf.Clients() < 1 || tf.Clients() > len(data) {
			t.Fatalf("%d clients from %d bytes", tf.Clients(), len(data))
		}
		specs, err := tf.Setup(namespace.NewTree(), tf.Clients(), rng.New(1))
		if err != nil {
			return
		}
		for _, sp := range specs {
			for n := 0; ; n++ {
				if _, ok := sp.Stream.Next(); !ok {
					break
				}
				if n > len(data) {
					t.Fatal("a stream yields more ops than the trace has bytes")
				}
			}
		}
	})
}
