package namespace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The eager reference answers every hash-keyed query from HashName,
// computed up front from the name, never from an inode's cache.

func eagerFrag(es []Entry, name string) (Entry, bool) {
	h := HashName(name)
	for _, e := range es {
		if e.Key.Frag.Contains(h) {
			return e, true
		}
	}
	return Entry{}, false
}

func eagerGoverning(p *Partition, in *Inode) Entry {
	for cur := in; cur.Parent != nil; cur = cur.Parent {
		if e, ok := eagerFrag(p.EntriesAt(cur.Parent.Ino), cur.Name); ok {
			return e
		}
	}
	return p.RootEntry()
}

func eagerChain(p *Partition, in *Inode) []MDSID {
	var auths []MDSID
	for cur := in; cur.Parent != nil; cur = cur.Parent {
		if e, ok := eagerFrag(p.EntriesAt(cur.Parent.Ino), cur.Name); ok {
			auths = append(auths, e.Auth)
		}
	}
	auths = append(auths, p.RootEntry().Auth)
	slices.Reverse(auths)
	return slices.Compact(auths)
}

func eagerChildEntry(p *Partition, dir *Inode, name string) Entry {
	if e, ok := eagerFrag(p.EntriesAt(dir.Ino), name); ok {
		return e
	}
	return eagerGoverning(p, dir)
}

// lazyHashModel drives a tree, its partition and a resolver through
// random steps and checks every hash-keyed answer against the eager
// reference.
type lazyHashModel struct {
	rng   *rand.Rand
	tr    *Tree
	p     *Partition
	r     *Resolver
	arena InodeArena
	dirs  []*Inode
	next  map[*Inode]int               // a directory's next in-order file number
	ref   map[*Inode]map[string]*Inode // a directory's children by name
	buf   []MDSID
}

func newLazyHashModel(seed int64) *lazyHashModel {
	tr := NewTree()
	p := NewPartition(tr, 0)
	return &lazyHashModel{
		rng: rand.New(rand.NewSource(seed)), tr: tr, p: p, r: NewResolver(p),
		dirs: []*Inode{tr.Root()}, next: map[*Inode]int{}, ref: map[*Inode]map[string]*Inode{},
	}
}

// resolves checks one inode — linked, or carved and not yet linked —
// against the reference: its governing entry through the resolver and
// the partition, its relay chain, and its membership of each of its
// parent's fragments.
func (m *lazyHashModel) resolves(in *Inode) error {
	want := eagerGoverning(m.p, in)
	if got := m.r.Entry(in); got != want {
		return fmt.Errorf("%s: Resolver.Entry %+v, want %+v", in.Path(), got, want)
	}
	if got := m.p.GoverningEntry(in); got != want {
		return fmt.Errorf("%s: GoverningEntry %+v, want %+v", in.Path(), got, want)
	}
	chain, gov := m.p.ResolveChainInto(m.buf, in)
	if m.buf = chain[:0]; gov != want || !slices.Equal(chain, eagerChain(m.p, in)) {
		return fmt.Errorf("%s: ResolveChainInto %v %+v, want %v %+v", in.Path(), chain, gov, eagerChain(m.p, in), want)
	}
	if in.Parent != nil {
		for _, e := range m.p.EntriesAt(in.Parent.Ino) {
			if got := in.InFrag(e.Key.Frag); got != e.Key.Frag.Contains(HashName(in.Name)) {
				return fmt.Errorf("%s: InFrag(%v) = %v", in.Path(), e.Key.Frag, got)
			}
		}
	}
	return nil
}

// routes checks the entry a name under dir is routed to, by the
// resolver and by the partition.
func (m *lazyHashModel) routes(dir *Inode, name string) error {
	want := eagerChildEntry(m.p, dir, name)
	if got := m.r.ChildEntry(dir, name); got != want {
		return fmt.Errorf("%s + %q: Resolver.ChildEntry %+v, want %+v", dir.Path(), name, got, want)
	}
	if got := m.p.GoverningChildEntry(dir, name); got != want {
		return fmt.Errorf("%s + %q: GoverningChildEntry %+v, want %+v", dir.Path(), name, got, want)
	}
	return nil
}

// create carves name under d, checks the carve, and adopts it unless
// abandon is set; it returns the check's error.
func (m *lazyHashModel) create(d *Inode, name string, abandon bool) error {
	if err := m.routes(d, name); err != nil {
		return err
	}
	in, err := m.arena.NewFile(d, name, 1)
	if err != nil {
		return err
	}
	if in.hashed || in.Ino != 0 || in.Name != name || in.Parent != d {
		return fmt.Errorf("carve of %q: %+v", name, *in)
	}
	if err := m.resolves(in); err != nil {
		return fmt.Errorf("carve: %w", err)
	}
	if abandon {
		// Hash the carve whatever its directory, so a slot reused with
		// a stale cache would show.
		if f := (Frag{Value: 1, Bits: 1}); in.InFrag(f) != f.Contains(HashName(name)) {
			return fmt.Errorf("carve of %q: InFrag(%v)", name, f)
		}
		return nil
	}
	got, adopted := m.tr.AdoptOrExisting(in)
	if ex := m.ref[d][name]; ex != nil {
		if adopted || got != ex {
			return fmt.Errorf("adopting taken %q: %v adopted=%v", name, got, adopted)
		}
		return nil
	}
	if !adopted || got != in {
		return fmt.Errorf("adopting %q: %v adopted=%v, carved %v", name, got, adopted, in)
	}
	m.link(d, got)
	return nil
}

func (m *lazyHashModel) link(d, in *Inode) {
	if m.ref[d] == nil {
		m.ref[d] = map[string]*Inode{}
	}
	m.ref[d][in.Name] = in
	if in.IsDir {
		m.dirs = append(m.dirs, in)
	}
}

func (m *lazyHashModel) step(i int) error {
	d := m.dirs[m.rng.Intn(len(m.dirs))]
	es := m.p.EntriesAt(d.Ino)
	auth := MDSID(m.rng.Intn(5))
	switch op := m.rng.Intn(13); {
	case op == 0:
		sub, err := m.tr.Mkdir(d, fileName("d", i))
		if err != nil {
			return err
		}
		m.link(d, sub)
	case op <= 3: // in name order: sorts after every child, no probe
		m.next[d]++
		return m.create(d, fileName("f", m.next[d]), false)
	case op <= 5: // out of order, duplicates among them
		return m.create(d, fileName("e", m.rng.Intn(300)), false)
	case op == 6:
		return m.create(d, fileName("x", m.rng.Intn(1000)), true)
	case op == 7:
		if _, err := m.tr.Create(d, fileName("c", i), 1); err != nil {
			return err
		}
		m.link(d, d.Child(fileName("c", i)))
	case op == 8:
		name := fileName("e", m.rng.Intn(300))
		if got := d.Child(name); got != m.ref[d][name] {
			return fmt.Errorf("%s: Child(%q) = %v, want %v", d.Path(), name, got, m.ref[d][name])
		}
	case op == 9:
		if len(es) == 0 {
			m.p.SetAuth(m.p.Carve(d).Key, auth)
		}
	case op <= 11:
		if len(es) > 0 {
			if l, _, ok := m.p.SplitEntry(es[m.rng.Intn(len(es))].Key); ok {
				m.p.SetAuth(l.Key, auth)
			}
		}
	case op == 12:
		if len(es) > 0 {
			m.p.MergeWithSibling(es[m.rng.Intn(len(es))].Key)
		}
	}
	return nil
}

// check runs the reference checks over the whole tree; full adds every
// name lookup and a random fragment test of every inode, which hash all.
func (m *lazyHashModel) check(full bool) error {
	var err error
	m.tr.Walk(func(in *Inode) bool {
		err = m.resolves(in)
		if err == nil && in.IsDir {
			for k := 0; k < 3 && err == nil; k++ {
				err = m.routes(in, fileName("n", m.rng.Intn(1000)))
			}
		}
		if err == nil && full && in.Parent != nil {
			if got := in.Parent.Child(in.Name); got != in {
				err = fmt.Errorf("%s: Child(%q) = %v", in.Parent.Path(), in.Name, got)
			}
			f := Frag{Value: uint32(m.rng.Intn(8)), Bits: 3}
			if err == nil && in.InFrag(f) != f.Contains(HashName(in.Name)) {
				err = fmt.Errorf("%s: InFrag(%v)", in.Path(), f)
			}
		}
		return err == nil
	})
	return err
}

// TestLazyHashMatchesEager drives random mkdirs, in-order and
// out-of-order creates, abandoned carves, creates, lookups, and
// fragment carves, splits and merges, and checks after every step that
// each inode's resolution (Resolver.Entry, GoverningEntry,
// ResolveChainInto, InFrag) and each directory's routing of names
// (Resolver.ChildEntry, GoverningChildEntry) equal the eager
// reference's; every 50 steps every Child lookup and a random fragment
// test of every inode too.
func TestLazyHashMatchesEager(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := newLazyHashModel(seed)
		for i := 0; i < 600; i++ {
			err := m.step(i)
			if err == nil {
				err = m.check(i%50 == 49)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
	}
}

// TestInOrderCreatesStayUnhashed: creates in name order into unsplit
// directories — routed, carved, resolved and adopted as the engine does
// — hash no file, even below a split directory and a subtree root.
func TestInOrderCreatesStayUnhashed(t *testing.T) {
	tr := NewTree()
	md, _ := tr.Mkdir(tr.Root(), "md")
	dirs := make([]*Inode, 4)
	for c := range dirs {
		dirs[c], _ = tr.Mkdir(md, fmt.Sprintf("client%03d", c))
	}
	p := NewPartition(tr, 0)
	p.SetAuth(p.Carve(md).Key, 1)
	l, _, _ := p.SplitEntry(FragKey{Dir: md.Ino})
	p.SetAuth(l.Key, 2)
	p.SetAuth(p.Carve(dirs[0]).Key, 3)
	r := NewResolver(p)
	var arena InodeArena
	var files []*Inode
	var buf []MDSID
	for i := 0; i < 4000; i++ {
		d := dirs[i%len(dirs)]
		name := fmt.Sprintf("c%03d.f%07d", i%len(dirs), i/len(dirs))
		if r.ChildEntry(d, name) != p.GoverningChildEntry(d, name) {
			t.Fatalf("create %d: routes disagree", i)
		}
		in, _ := arena.NewFile(d, name, 0)
		buf, _ = p.ResolveChainInto(buf, in)
		if r.Entry(in) != p.GoverningEntry(in) {
			t.Fatalf("create %d: carve resolutions disagree", i)
		}
		f, adopted := tr.AdoptOrExisting(in)
		if !adopted {
			t.Fatalf("create %d: %q not adopted", i, name)
		}
		r.Entry(f)
		files = append(files, f)
	}
	for _, f := range files {
		if f.hashed {
			t.Fatalf("%s was hashed", f.Path())
		}
	}
	if !dirs[1].hashed {
		t.Fatal("a child of the split /md was not hashed")
	}
}

// TestAbandonedCarveInvisible: a carve that is never adopted changes
// nothing a reader sees, and the next carve or Create takes its slot,
// every field reset — at a slab boundary too.
func TestAbandonedCarveInvisible(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	var arena InodeArena
	for first := true; ; first = false {
		maxIno, n := tr.MaxIno(), tr.NumInodes()
		c, err := arena.NewFile(d, "x", 7)
		if err != nil {
			t.Fatal(err)
		}
		c.InFrag(Frag{Value: 1, Bits: 1})
		c.Hot.Touch(3)
		if tr.MaxIno() != maxIno || tr.Get(maxIno+1) != nil || tr.NumInodes() != n || d.Child("x") != nil {
			t.Fatalf("carve visible: MaxIno %d (was %d), Get %v, %d inodes (was %d)", tr.MaxIno(), maxIno, tr.Get(maxIno+1), tr.NumInodes(), n)
		}
		again, _ := arena.NewFile(d, "y", 8)
		if again != c || *again != (Inode{Parent: d, Size: 8, Name: "y"}) {
			t.Fatalf("second carve: %p %+v, want slot %p reset", again, *again, c)
		}
		f, err := tr.Create(d, fileName("z", int(maxIno)), 9) // sorts last: no probe
		if err != nil {
			t.Fatal(err)
		}
		if f != c || f.Ino != maxIno+1 || f.hashed || f.Hot != (Hot{}) || tr.Get(f.Ino) != f {
			t.Fatalf("Create after abandoned carves: %p %+v, want slot %p as ino %d", f, *f, c, maxIno+1)
		}
		if !first {
			if f.Ino%inodeSlabSize != 0 || len(tr.slabs) != 2 {
				t.Fatalf("slab boundary: ino %d, %d slabs", f.Ino, len(tr.slabs))
			}
			return
		}
		for tr.MaxIno()+1 < inodeSlabSize {
			if _, err := tr.Create(d, fileName("f", int(tr.MaxIno())), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}
