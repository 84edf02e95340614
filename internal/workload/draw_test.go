package workload

import (
	"strings"
	"testing"

	"repro/internal/namespace"
)

// drawTrace replays creates with a size, an open without a byte count
// (the file's own size), ops on paths that exist only once a create is
// served (skipped: nothing serves here) and a readdir.
const drawTrace = `0 lookup /web/a.html
0 open /web/a.html 2048
1 open /web/b.html
0 readdir /web
1 create /md/c0/f1 512
1 lookup /md/c0/f1
0 getattr /web/b.html
1 create /md/c0/f2
1 open /web/a.html
`

// opKey is what a drawn op is compared by across two identically built
// trees: inode numbers, not pointers (-1 for nil).
type opKey struct {
	kind           OpKind
	target, parent int64
	name           string
	size, data     int64
}

func keyOf(op *Op) opKey {
	ino := func(in *namespace.Inode) int64 {
		if in == nil {
			return -1
		}
		return int64(in.Ino)
	}
	return opKey{op.Kind, ino(op.Target), ino(op.Parent), op.Name, op.Size, op.DataSize}
}

// TestStreamDrawMatchesNext: for every generator, the trace replay and
// an op list, draining one setup with Next and an identical one with
// Draw yields the same ops. Each Draw writes into a slot left dirty —
// every field non-zero, a sentinel inode in both pointers — as a reused
// queue slot is (CompleteOp clears only the pointers), so a Draw that
// forgets a field fails here. At the end, Draw returns false and leaves
// the slot as it was.
func TestStreamDrawMatchesNext(t *testing.T) {
	const clients, seed = 6, 5
	sentinel := &namespace.Inode{Ino: 1 << 40}
	dirty := Op{Kind: OpKind(99), Target: sentinel, Parent: sentinel, Name: "dirty", Size: -7, DataSize: -9}
	tenants := func() Generator {
		return NewTenants(TenantsConfig{Tenants: 3}, func(tn, _, off int) Generator {
			switch tn {
			case 0:
				return NewZipf(ZipfConfig{Dir: "/t0", FilesPerClient: 30, OpsPerClient: 200, ClientOffset: off})
			case 1:
				return NewMD(MDConfig{Dir: "/t1", CreatesPerClient: 90, DirsPerClient: 2, StatEvery: 11, ClientOffset: off})
			default:
				return NewReadStorm(ReadStormConfig{Dir: "/t2", Files: 30, OpsPerClient: 200, WriteEvery: 9, ClientOffset: off})
			}
		})
	}
	trace := func() Generator {
		tf, err := ParseTrace(strings.NewReader(drawTrace))
		if err != nil {
			t.Fatal(err)
		}
		return tf
	}
	gens := []struct {
		name    string
		clients int
		gen     func() Generator
	}{
		{"CNN", clients, func() Generator { return NewCNN(CNNConfig{Dirs: 5, FilesPerDir: 7}) }},
		{"NLP", clients, func() Generator { return NewNLP(NLPConfig{Dirs: 3, FilesPerDir: 5}) }},
		{"Web", clients, func() Generator { return NewWeb(WebConfig{Files: 300, RequestsPerClient: webPhaseLen + 100}) }},
		{"Zipf", clients, func() Generator { return NewZipf(ZipfConfig{FilesPerClient: 40, OpsPerClient: 300}) }},
		{"MD", clients, func() Generator {
			return NewMD(MDConfig{CreatesPerClient: 150, DirsPerClient: 4, StatEvery: 9})
		}},
		{"ReadStorm", clients, func() Generator {
			return NewReadStorm(ReadStormConfig{Files: 50, OpsPerClient: 300, WriteEvery: 7})
		}},
		{"Tenants", clients, tenants},
		{"Mixed", 8, func() Generator {
			return NewMixed(NewCNN(CNNConfig{Dirs: 4, FilesPerDir: 5}), NewNLP(NLPConfig{Dirs: 2, FilesPerDir: 4}),
				NewWeb(WebConfig{Files: 120, RequestsPerClient: 400}), NewZipf(ZipfConfig{FilesPerClient: 20, OpsPerClient: 150}))
		}},
		{"Trace", 2, trace},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			_, byNext := setup(t, g.gen(), g.clients, seed)
			_, byDraw := setup(t, g.gen(), g.clients, seed)
			for c := range byNext {
				checkDrawMatchesNext(t, c, byNext[c].Stream, byDraw[c].Stream, dirty)
			}
		})
	}
	t.Run("OpList", func(t *testing.T) {
		tree := namespace.NewTree()
		dir, _ := tree.MkdirAll("/l")
		f, _ := tree.Create(dir, "f", 300)
		ops := []Op{
			{Kind: OpLookup, Target: f},
			{Kind: OpOpen, Target: f, DataSize: 300},
			{Kind: OpCreate, Parent: dir, Name: "g", Size: 40},
			{Kind: OpReaddir, Target: dir},
		}
		checkDrawMatchesNext(t, 0, NewOpList(ops), NewOpList(ops), dirty)
	})
}

func checkDrawMatchesNext(t *testing.T, c int, byNext, byDraw Stream, dirty Op) {
	t.Helper()
	n := 0
	for ; ; n++ {
		want, ok := byNext.Next()
		slot := dirty
		if got := byDraw.Draw(&slot); got != ok {
			t.Fatalf("client %d op %d: Draw %v, Next %v", c, n, got, ok)
		}
		if !ok {
			if slot != dirty {
				t.Fatalf("client %d: Draw at the end wrote %+v", c, slot)
			}
			break
		}
		if got, want := keyOf(&slot), keyOf(&want); got != want {
			t.Fatalf("client %d op %d: Draw %+v, Next %+v", c, n, got, want)
		}
	}
	if n == 0 {
		t.Fatalf("client %d: empty stream", c)
	}
}
