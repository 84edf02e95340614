package namespace

import (
	"testing"
	"testing/quick"
)

// buildPartitionFixture creates:
//
//	/
//	├── a/        (10 files)
//	├── b/
//	│   └── sub/  (5 files)
//	└── c/        (20 files)
func buildPartitionFixture(t testing.TB) (*Tree, *Partition) {
	t.Helper()
	tr := NewTree()
	a, _ := tr.Mkdir(tr.Root(), "a")
	b, _ := tr.Mkdir(tr.Root(), "b")
	sub, _ := tr.Mkdir(b, "sub")
	c, _ := tr.Mkdir(tr.Root(), "c")
	for i := 0; i < 10; i++ {
		if _, err := tr.Create(a, fileName("f", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := tr.Create(sub, fileName("g", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := tr.Create(c, fileName("h", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	return tr, NewPartition(tr, 0)
}

func TestPartitionDefaultAuth(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	f, _ := tr.Lookup("/b/sub/g00001")
	if p.AuthOf(f) != 0 {
		t.Fatal("default auth must be root auth")
	}
	if p.AuthOf(tr.Root()) != 0 {
		t.Fatal("root auth")
	}
	if p.NumEntries() != 1 {
		t.Fatal("fresh partition has exactly the root entry")
	}
}

func TestCarveAndSetAuth(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	e := p.Carve(a)
	if e.Auth != 0 {
		t.Fatal("carved entry inherits enclosing auth")
	}
	if !p.SetAuth(e.Key, 2) {
		t.Fatal("SetAuth failed")
	}
	f, _ := tr.Lookup("/a/f00003")
	if p.AuthOf(f) != 2 {
		t.Fatal("file under carved subtree must follow new auth")
	}
	// The dir inode itself stays with the parent subtree (CephFS rule).
	if p.AuthOf(a) != 0 {
		t.Fatal("subtree root dir inode belongs to enclosing subtree")
	}
	// Unrelated paths unchanged.
	g, _ := tr.Lookup("/b/sub/g00000")
	if p.AuthOf(g) != 0 {
		t.Fatal("unrelated subtree moved")
	}
}

func TestCarveIdempotent(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	e1 := p.Carve(a)
	e2 := p.Carve(a)
	if e1.Key != e2.Key || p.NumEntries() != 2 {
		t.Fatal("double carve must not duplicate entries")
	}
}

func TestNestedCarve(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	b, _ := tr.Lookup("/b")
	sub, _ := tr.Lookup("/b/sub")
	eb := p.Carve(b)
	p.SetAuth(eb.Key, 1)
	esub := p.Carve(sub)
	if esub.Auth != 1 {
		t.Fatal("nested carve inherits nearest enclosing auth")
	}
	p.SetAuth(esub.Key, 2)
	g, _ := tr.Lookup("/b/sub/g00000")
	if p.AuthOf(g) != 2 {
		t.Fatal("deepest entry wins")
	}
	if p.AuthOf(sub) != 1 {
		t.Fatal("sub's own inode belongs to /b subtree")
	}
}

func TestGovernedSizesSumToTotal(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	check := func() {
		t.Helper()
		total := 0
		for _, sz := range p.SubtreeSizes() {
			if sz < 0 {
				t.Fatal("negative governed size")
			}
			total += sz
		}
		if total != tr.NumInodes() {
			t.Fatalf("governed sizes sum %d != total inodes %d", total, tr.NumInodes())
		}
	}
	check()
	a, _ := tr.Lookup("/a")
	p.SetAuth(p.Carve(a).Key, 1)
	check()
	b, _ := tr.Lookup("/b")
	sub, _ := tr.Lookup("/b/sub")
	p.SetAuth(p.Carve(b).Key, 1)
	p.SetAuth(p.Carve(sub).Key, 2)
	check()
}

func TestGovernedInodesValues(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	ea := p.Carve(a)
	// /a has 10 files; the subtree rooted at /a governs them (not /a itself).
	if got := p.GovernedInodes(ea.Key); got != 10 {
		t.Fatalf("GovernedInodes(/a) = %d, want 10", got)
	}
	b, _ := tr.Lookup("/b")
	sub, _ := tr.Lookup("/b/sub")
	eb := p.Carve(b)
	// /b governs sub + 5 files = 6 inodes.
	if got := p.GovernedInodes(eb.Key); got != 6 {
		t.Fatalf("GovernedInodes(/b) = %d, want 6", got)
	}
	esub := p.Carve(sub)
	// After carving /b/sub, /b governs only sub's dir inode.
	if got := p.GovernedInodes(eb.Key); got != 1 {
		t.Fatalf("GovernedInodes(/b) after nested carve = %d, want 1", got)
	}
	if got := p.GovernedInodes(esub.Key); got != 5 {
		t.Fatalf("GovernedInodes(/b/sub) = %d, want 5", got)
	}
}

func TestSplitEntry(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	c, _ := tr.Lookup("/c")
	e := p.Carve(c)
	l, r, ok := p.SplitEntry(e.Key)
	if !ok {
		t.Fatal("split failed")
	}
	if l.Auth != e.Auth || r.Auth != e.Auth {
		t.Fatal("split halves keep authority")
	}
	// Every child of /c resolves to exactly one of the halves.
	p.SetAuth(l.Key, 3)
	p.SetAuth(r.Key, 4)
	n3, n4 := 0, 0
	for _, ch := range c.Children() {
		switch p.AuthOf(ch) {
		case 3:
			n3++
		case 4:
			n4++
		default:
			t.Fatalf("child %q resolved outside split halves", ch.Name)
		}
	}
	if n3+n4 != 20 || n3 == 0 || n4 == 0 {
		t.Fatalf("split distribution %d/%d", n3, n4)
	}
	// Sizes of halves sum to the original governed size.
	sizes := p.SubtreeSizes()
	if sizes[l.Key]+sizes[r.Key] != 20 {
		t.Fatalf("split sizes %d + %d != 20", sizes[l.Key], sizes[r.Key])
	}
}

func TestAbsorb(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	e := p.Carve(a)
	p.SetAuth(e.Key, 2)
	f, _ := tr.Lookup("/a/f00000")
	if p.AuthOf(f) != 2 {
		t.Fatal("precondition")
	}
	if !p.Absorb(e.Key) {
		t.Fatal("absorb failed")
	}
	if p.AuthOf(f) != 0 {
		t.Fatal("absorbed region must rejoin enclosing subtree")
	}
	if p.Absorb(FragKey{Dir: RootIno, Frag: WholeFrag}) {
		t.Fatal("root entry must not be absorbable")
	}
}

// TestResolveChainHops: a path traversal forwards once per authority
// change along the chain of subtree roots (len(chain)-1 hops).
func TestResolveChainHops(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	b, _ := tr.Lookup("/b")
	sub, _ := tr.Lookup("/b/sub")
	g, _ := tr.Lookup("/b/sub/g00000")

	hopsTo := func(in *Inode) (Entry, int) {
		chain, e := p.ResolveChainInto(nil, in)
		return e, len(chain) - 1
	}
	// Single subtree: no forwards.
	if _, hops := hopsTo(g); hops != 0 {
		t.Fatalf("hops = %d, want 0", hops)
	}
	// /b on MDS 1: one auth change root->b.
	p.SetAuth(p.Carve(b).Key, 1)
	if _, hops := hopsTo(g); hops != 1 {
		t.Fatalf("hops = %d, want 1", hops)
	}
	// /b/sub on MDS 2: two changes (0->1->2).
	p.SetAuth(p.Carve(sub).Key, 2)
	if e, hops := hopsTo(g); hops != 2 || e.Auth != 2 {
		t.Fatalf("hops = %d auth = %d, want 2/2", hops, e.Auth)
	}
	// Same-auth nesting collapses: /b/sub back to MDS 1 -> one change.
	p.SetAuth(FragKey{Dir: sub.Ino, Frag: WholeFrag}, 1)
	if _, hops := hopsTo(g); hops != 1 {
		t.Fatalf("hops after same-auth nesting = %d, want 1", hops)
	}
}

func TestInodesPerMDS(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	p.SetAuth(p.Carve(a).Key, 1)
	counts := p.InodesPerMDS(2)
	if counts[1] != 10 {
		t.Fatalf("MDS1 inodes = %d, want 10", counts[1])
	}
	if counts[0]+counts[1] != tr.NumInodes() {
		t.Fatal("per-MDS inode counts must sum to total")
	}
}

func TestVersionBumps(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	v0 := p.Version()
	a, _ := tr.Lookup("/a")
	e := p.Carve(a)
	if p.Version() == v0 {
		t.Fatal("carve must bump version")
	}
	v1 := p.Version()
	p.SetAuth(e.Key, 1)
	if p.Version() == v1 {
		t.Fatal("auth change must bump version")
	}
	v2 := p.Version()
	p.SetAuth(e.Key, 1) // no-op
	if p.Version() != v2 {
		t.Fatal("no-op auth change must not bump version")
	}
}

func TestPartitionSizesProperty(t *testing.T) {
	// Carving random directories never breaks the sum-to-total invariant.
	tr, p := buildPartitionFixture(t)
	var dirs []*Inode
	tr.Walk(func(in *Inode) bool {
		if in.IsDir && in.Parent != nil {
			dirs = append(dirs, in)
		}
		return true
	})
	f := func(picks []uint8) bool {
		for _, pk := range picks {
			d := dirs[int(pk)%len(dirs)]
			if len(d.Children()) == 0 {
				continue
			}
			e := p.Carve(d)
			p.SetAuth(e.Key, MDSID(pk%5))
		}
		total := 0
		for _, sz := range p.SubtreeSizes() {
			if sz < 0 {
				return false
			}
			total += sz
		}
		return total == tr.NumInodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	b, _ := tr.Lookup("/b")
	p.Carve(b)
	p.Carve(a)
	e1 := p.Entries()
	e2 := p.Entries()
	if len(e1) != 3 {
		t.Fatalf("entries = %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Entries order not deterministic")
		}
	}
	for i := 1; i < len(e1); i++ {
		if e1[i].Key.Dir < e1[i-1].Key.Dir {
			t.Fatal("Entries not sorted by dir")
		}
	}
}
