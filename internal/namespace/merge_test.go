package namespace

import "testing"

func TestMergeWithSibling(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	c, _ := tr.Lookup("/c")
	e := p.Carve(c)
	l, r, ok := p.SplitEntry(e.Key)
	if !ok {
		t.Fatal("split failed")
	}
	before := p.NumEntries()
	merged, ok := p.MergeWithSibling(l.Key)
	if !ok {
		t.Fatal("merge failed")
	}
	if merged.Key != e.Key {
		t.Fatalf("merged key %v, want parent %v", merged.Key, e.Key)
	}
	if p.NumEntries() != before-1 {
		t.Fatalf("entries = %d, want %d", p.NumEntries(), before-1)
	}
	// Both halves are gone, the parent exists.
	if _, ok := p.EntryAt(l.Key); ok {
		t.Fatal("left half still present")
	}
	if _, ok := p.EntryAt(r.Key); ok {
		t.Fatal("right half still present")
	}
	if _, ok := p.EntryAt(e.Key); !ok {
		t.Fatal("parent entry missing")
	}
	// Resolution still covers every child.
	for _, ch := range c.Children() {
		if p.GoverningEntry(ch).Auth != merged.Auth {
			t.Fatal("child resolution broken after merge")
		}
	}
}

func TestMergeWithSiblingRefusesMixedAuth(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	c, _ := tr.Lookup("/c")
	e := p.Carve(c)
	l, r, _ := p.SplitEntry(e.Key)
	p.SetAuth(l.Key, 1)
	p.SetAuth(r.Key, 2)
	if _, ok := p.MergeWithSibling(l.Key); ok {
		t.Fatal("must not merge fragments with different authorities")
	}
	// Same auth again: merge allowed.
	p.SetAuth(r.Key, 1)
	if _, ok := p.MergeWithSibling(l.Key); !ok {
		t.Fatal("same-auth merge should succeed")
	}
}

func TestMergeWithSiblingDegenerate(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	a, _ := tr.Lookup("/a")
	e := p.Carve(a)
	if _, ok := p.MergeWithSibling(e.Key); ok {
		t.Fatal("whole fragment has no sibling to merge with")
	}
	if _, ok := p.MergeWithSibling(FragKey{Dir: 999, Frag: Frag{Value: 0, Bits: 1}}); ok {
		t.Fatal("missing entry must not merge")
	}
}

func TestMergePreservesSizes(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	c, _ := tr.Lookup("/c")
	e := p.Carve(c)
	l, _, _ := p.SplitEntry(e.Key)
	// Split twice more for a deeper tree of fragments.
	p.SplitEntry(l.Key)
	total := 0
	for _, sz := range p.SubtreeSizes() {
		total += sz
	}
	if total != tr.NumInodes() {
		t.Fatalf("pre-merge total %d != %d", total, tr.NumInodes())
	}
	// Merge the deepest pair back.
	ll := FragKey{Dir: c.Ino, Frag: Frag{Value: 0, Bits: 2}}
	if _, ok := p.MergeWithSibling(ll); !ok {
		t.Fatal("deep merge failed")
	}
	total = 0
	for _, sz := range p.SubtreeSizes() {
		total += sz
	}
	if total != tr.NumInodes() {
		t.Fatalf("post-merge total %d != %d", total, tr.NumInodes())
	}
}

func TestEnclosingAuth(t *testing.T) {
	tr, p := buildPartitionFixture(t)
	b, _ := tr.Lookup("/b")
	sub, _ := tr.Lookup("/b/sub")
	eb := p.Carve(b)
	p.SetAuth(eb.Key, 1)
	esub := p.Carve(sub)
	p.SetAuth(esub.Key, 2)
	if auth, ok := p.EnclosingAuth(esub.Key); !ok || auth != 1 {
		t.Fatalf("enclosing of /b/sub = %v/%v, want 1", auth, ok)
	}
	if auth, ok := p.EnclosingAuth(eb.Key); !ok || auth != 0 {
		t.Fatalf("enclosing of /b = %v/%v, want 0", auth, ok)
	}
	if _, ok := p.EnclosingAuth(FragKey{Dir: RootIno, Frag: WholeFrag}); ok {
		t.Fatal("root has no enclosing entry")
	}
}
