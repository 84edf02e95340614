package namespace

import (
	"fmt"
	"math/rand"
	"testing"
)

// refDir is the reference a directory's name index is checked against:
// a plain map plus the insertion-ordered slice.
type refDir struct {
	byName map[string]*Inode
	order  []*Inode
}

// TestDirIndexProperty drives random Create/Mkdir/AdoptOrExisting/
// Child and unadopted carves against three directories of one tree
// and, after every step, checks each against its reference: every known
// name resolves to its own inode, unknown names to nil, Children() is
// the insertion order, NumChildren and the subtree counters add up, and
// the tree keeps its number order (checkNumberOrder), and the index
// itself is well formed (checkIndex). The step count takes the busy
// directories across the 6, 12, .. 768-child growth boundaries of a
// table at most three quarters full, to 2048 slots.
func TestDirIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTree()
	var arena InodeArena
	dirs := []*Inode{tr.Root()}
	refs := map[*Inode]*refDir{tr.Root(): {byName: map[string]*Inode{}}}
	for _, n := range []string{"d0", "d1"} {
		d, err := tr.Mkdir(tr.Root(), n)
		if err != nil {
			t.Fatal(err)
		}
		refs[tr.Root()].byName[n] = d
		refs[tr.Root()].order = append(refs[tr.Root()].order, d)
		dirs = append(dirs, d)
		refs[d] = &refDir{byName: map[string]*Inode{}}
	}
	check := func(step int) {
		t.Helper()
		inodes, files := 0, 0
		for _, d := range dirs {
			ref := refs[d]
			if d.NumChildren() != len(ref.order) || len(d.Children()) != len(ref.order) {
				t.Fatalf("step %d: %s has %d children, want %d", step, d.Path(), d.NumChildren(), len(ref.order))
			}
			for i, c := range d.Children() {
				if c != ref.order[i] {
					t.Fatalf("step %d: %s child %d is %q, want %q", step, d.Path(), i, c.Name, ref.order[i].Name)
				}
			}
			for name, want := range ref.byName {
				if got := d.Child(name); got != want {
					t.Fatalf("step %d: %s.Child(%q) = %v, want its own inode", step, d.Path(), name, got)
				}
			}
			if d.Child("never-created") != nil {
				t.Fatalf("step %d: unknown name resolves in %s", step, d.Path())
			}
			inodes += len(ref.order)
			for _, c := range ref.order {
				if !c.IsDir {
					files++
				}
			}
			if d != tr.Root() {
				nf := 0
				for _, c := range ref.order {
					nf += c.SubtreeFiles()
				}
				if d.SubtreeInodes() != 1+len(ref.order) || d.SubtreeFiles() != nf {
					t.Fatalf("step %d: %s counts %d inodes / %d files, want %d / %d",
						step, d.Path(), d.SubtreeInodes(), d.SubtreeFiles(), 1+len(ref.order), nf)
				}
			}
		}
		if tr.NumInodes() != 1+inodes || tr.Root().SubtreeFiles() != files {
			t.Fatalf("step %d: tree counts %d inodes / %d files, want %d / %d",
				step, tr.NumInodes(), tr.Root().SubtreeFiles(), 1+inodes, files)
		}
		if err := checkNumberOrder(tr); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, d := range dirs {
			if err := checkIndex(d); err != nil {
				t.Fatalf("step %d: %s: %v", step, d.Path(), err)
			}
		}
	}
	const steps = 4000
	for step := 0; step < steps; step++ {
		d := dirs[1+rng.Intn(2)]
		if rng.Intn(8) == 0 {
			d = tr.Root()
		}
		ref := refs[d]
		// A small name space, so duplicates are common.
		name := fmt.Sprintf("n%d", rng.Intn(1800))
		switch op := rng.Intn(11); {
		case op < 4:
			in, err := tr.Create(d, name, 1)
			if (err == ErrExists) != (ref.byName[name] != nil) {
				t.Fatalf("step %d: Create(%q) err=%v, reference has it: %v", step, name, err, ref.byName[name] != nil)
			}
			if err == nil {
				ref.byName[name], ref.order = in, append(ref.order, in)
			}
		case op < 8:
			promised, err := arena.NewFile(d, name, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, adopted := tr.AdoptOrExisting(promised)
			if ex := ref.byName[name]; ex != nil {
				if adopted || got != ex {
					t.Fatalf("step %d: adopting duplicate %q: got %v adopted=%v", step, name, got, adopted)
				}
			} else {
				if !adopted || got == promised || got.Name != name || tr.Get(got.Ino) != got {
					t.Fatalf("step %d: adopting new %q: got %v adopted=%v", step, name, got, adopted)
				}
				ref.byName[name], ref.order = got, append(ref.order, got)
			}
		case op == 10: // a carve that never links
			before := tr.MaxIno()
			if _, err := arena.NewFile(d, name, 1); err != nil || tr.MaxIno() != before {
				t.Fatalf("step %d: unadopted carve of %q: err=%v, MaxIno %d -> %d", step, name, err, before, tr.MaxIno())
			}
		default:
			in, err := tr.Mkdir(d, name)
			if (err == ErrExists) != (ref.byName[name] != nil) {
				t.Fatalf("step %d: Mkdir(%q) err=%v", step, name, err)
			}
			if err == nil {
				ref.byName[name], ref.order = in, append(ref.order, in)
			}
		}
		check(step)
	}
	for _, d := range dirs[1:] {
		if len(d.dir.index.slots) < 2048 {
			t.Fatalf("%s index reached only %d slots; the run must cross several growth boundaries", d.Path(), len(d.dir.index.slots))
		}
	}
}

// checkIndex reports how d's name index departs from its order: it
// must hold each child's position exactly once, tagged with the bits of
// the child's name hash above the table mask, and be at most three
// quarters full.
func checkIndex(d *Inode) error {
	slots := d.dir.index.slots
	if slots == nil {
		if d.NumChildren() != 0 {
			return fmt.Errorf("no index over %d children", d.NumChildren())
		}
		return nil
	}
	mask := uint32(len(slots) - 1)
	seen := make([]bool, d.NumChildren())
	for i, s := range slots {
		if s == 0 {
			continue
		}
		pos := int(s&mask) - 1
		if pos < 0 || pos >= len(seen) || seen[pos] {
			return fmt.Errorf("slot %d holds position %d of %d, or a repeat", i, pos, len(seen))
		}
		seen[pos] = true
		if h := d.ChildAt(pos).nameHash; s&^mask != h&^mask {
			return fmt.Errorf("slot %d tags position %d with %#x, its hash is %#x", i, pos, s&^mask, h)
		}
	}
	for pos, ok := range seen {
		if !ok {
			return fmt.Errorf("child %d is not indexed", pos)
		}
	}
	if 4*len(seen) > 3*len(slots) {
		return fmt.Errorf("%d children in %d slots: over three quarters full", len(seen), len(slots))
	}
	return nil
}

// collidingNames returns the first two distinct names "k<i>" with equal
// HashName: a birthday search over 32 bits needs ~80k candidates.
func collidingNames(t *testing.T) (string, string) {
	t.Helper()
	seen := make(map[uint32]string)
	for i := 0; i < 1<<22; i++ {
		n := fmt.Sprintf("k%d", i)
		h := HashName(n)
		if m, ok := seen[h]; ok {
			return m, n
		}
		seen[h] = n
	}
	t.Fatal("no HashName collision in 4M names")
	return "", ""
}

// TestDirIndexHashCollision: two names with the same 32-bit hash share
// a probe sequence and a full-hash match, and only the name compare
// tells them apart.
func TestDirIndexHashCollision(t *testing.T) {
	a, b := collidingNames(t)
	if a == b || HashName(a) != HashName(b) {
		t.Fatalf("bad pair %q %q", a, b)
	}
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	ia, err := tr.Create(d, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := tr.Create(d, b, 2)
	if err != nil {
		t.Fatalf("second colliding name refused: %v", err)
	}
	if d.Child(a) != ia || d.Child(b) != ib || ia == ib {
		t.Fatalf("colliding names resolve to %v, %v", d.Child(a), d.Child(b))
	}
	var arena InodeArena
	third, _ := arena.NewFile(d, a, 3)
	if got, adopted := tr.AdoptOrExisting(third); adopted || got != ia {
		t.Fatalf("adopting a promise of the first name: got %v adopted=%v, want the existing inode", got, adopted)
	}
	if d.NumChildren() != 2 {
		t.Fatalf("NumChildren = %d, want 2", d.NumChildren())
	}
}
