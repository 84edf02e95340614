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
// and, after every step, checks each against its reference: Children()
// is the insertion order, NumChildren and the subtree counters add up,
// the tree keeps its number order (checkNumberOrder), and the index
// itself is well formed (checkIndex). Every known name resolves to its
// own inode and an unknown one to nil at every 97th step and at the end;
// between them the directories keep their tails. Phases of 250 steps
// alternate: random names from a small space, so duplicates are common,
// then mostly ascending runs of names that sort last, with out-of-order
// names landing behind the tail and duplicates of tail names. A lookup
// step also asks for absent names below and above the largest, and the
// one above must not index the tail. The busy directories cross the 6,
// 12, .. 768-child growth boundaries of a table at most three quarters
// full, to 2048 slots and beyond.
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
	lookups := func(step int) {
		t.Helper()
		for _, d := range dirs {
			for name, want := range refs[d].byName {
				if got := d.Child(name); got != want {
					t.Fatalf("step %d: %s.Child(%q) = %v, want its own inode", step, d.Path(), name, got)
				}
			}
			if d.Child("never-created") != nil {
				t.Fatalf("step %d: unknown name resolves in %s", step, d.Path())
			}
		}
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
			if err := checkIndex(d); err != nil {
				t.Fatalf("step %d: %s: %v", step, d.Path(), err)
			}
		}
		if tr.NumInodes() != 1+inodes || tr.Root().SubtreeFiles() != files {
			t.Fatalf("step %d: tree counts %d inodes / %d files, want %d / %d",
				step, tr.NumInodes(), tr.Root().SubtreeFiles(), 1+inodes, files)
		}
		if err := checkNumberOrder(tr); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	const steps = 5000
	next, tailDups := 0, 0 // the ascending counter; duplicates drawn from a tail
	for step := 0; step < steps; step++ {
		d := dirs[1+rng.Intn(2)]
		if rng.Intn(8) == 0 {
			d = tr.Root()
		}
		ref := refs[d]
		// "n<i>" names sort below "o<counter>" ones: in an ordered phase
		// they land behind the tail.
		name := fmt.Sprintf("n%d", rng.Intn(1800))
		if ordered := step/250%2 == 1; ordered {
			switch r := rng.Intn(10); {
			case r == 0:
			case r == 1 && len(ref.order) > 0:
				name = ref.order[rng.Intn(len(ref.order))].Name
				if tail := d.dir.order[d.dir.index.n:]; len(tail) > 0 {
					name = tr.at(tail[rng.Intn(len(tail))]).Name
					tailDups++
				}
			default:
				next++
				name = fmt.Sprintf("o%06d", next)
			}
		}
		switch op := rng.Intn(12); {
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
				if !adopted || got != promised || got.Name != name || tr.Get(got.Ino) != got {
					t.Fatalf("step %d: adopting new %q: got %v adopted=%v", step, name, got, adopted)
				}
				ref.byName[name], ref.order = got, append(ref.order, got)
			}
		case op == 10: // a carve that never links
			before := tr.MaxIno()
			if _, err := arena.NewFile(d, name, 1); err != nil || tr.MaxIno() != before {
				t.Fatalf("step %d: unadopted carve of %q: err=%v, MaxIno %d -> %d", step, name, err, before, tr.MaxIno())
			}
		case op == 11: // lookups: above the largest name, the drawn one, below
			indexed := d.dir.index.n
			if d.Child(fmt.Sprintf("z%d", step)) != nil || d.dir.index.n != indexed {
				t.Fatalf("step %d: a name above the largest resolves in %s or indexes its tail (%d -> %d)",
					step, d.Path(), indexed, d.dir.index.n)
			}
			if got := d.Child(name); got != ref.byName[name] {
				t.Fatalf("step %d: %s.Child(%q) = %v, want %v", step, d.Path(), name, got, ref.byName[name])
			}
			if d.Child(fmt.Sprintf("a%d", step)) != nil {
				t.Fatalf("step %d: an absent name below the largest resolves in %s", step, d.Path())
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
		if step%97 == 0 {
			lookups(step)
		}
	}
	lookups(steps)
	check(steps)
	if tailDups < 50 {
		t.Fatalf("only %d duplicates of tail names were drawn", tailDups)
	}
	for _, d := range dirs[1:] {
		if len(d.dir.index.slots) < 2048 {
			t.Fatalf("%s index reached only %d slots; the run must cross several growth boundaries", d.Path(), len(d.dir.index.slots))
		}
	}
}

// checkIndex reports how d's name index departs from its invariant: the
// table holds exactly the positions of order[:n], each once, tagged with
// the bits of the child's name hash above the table mask, and is at most
// three quarters full; the tail, order[n:], strictly ascends by name
// above every indexed name; and last is the position of the largest.
func checkIndex(d *Inode) error {
	ix := &d.dir.index
	n := int(ix.n)
	if n > d.NumChildren() {
		return fmt.Errorf("%d of %d children indexed", n, d.NumChildren())
	}
	if ix.slots == nil && n != 0 {
		return fmt.Errorf("no table over %d indexed children", n)
	}
	mask := uint32(len(ix.slots) - 1)
	seen := make([]bool, n)
	for i, s := range ix.slots {
		if s == 0 {
			continue
		}
		pos := int(s&mask) - 1
		if pos < 0 || pos >= n || seen[pos] {
			return fmt.Errorf("slot %d holds position %d of %d indexed, or a repeat", i, pos, n)
		}
		seen[pos] = true
		if h := HashName(d.ChildAt(pos).Name); s&^mask != h&^mask {
			return fmt.Errorf("slot %d tags position %d with %#x, its hash is %#x", i, pos, s&^mask, h)
		}
	}
	for pos, ok := range seen {
		if !ok {
			return fmt.Errorf("child %d is not indexed", pos)
		}
	}
	if 4*n > 3*len(ix.slots) {
		return fmt.Errorf("%d children in %d slots: over three quarters full", n, len(ix.slots))
	}
	largest := -1
	for pos := 0; pos < d.NumChildren(); pos++ {
		name := d.ChildAt(pos).Name
		if pos >= n && largest >= 0 && name <= d.ChildAt(largest).Name {
			return fmt.Errorf("tail child %d, %q, does not sort after %q", pos, name, d.ChildAt(largest).Name)
		}
		if largest < 0 || name > d.ChildAt(largest).Name {
			largest = pos
		}
	}
	if largest >= 0 && ix.last != d.ChildAt(largest).Name {
		return fmt.Errorf("last = %q, the largest name is %q", ix.last, d.ChildAt(largest).Name)
	}
	return nil
}

// FuzzDirIndex decodes its input as (op, name) byte pairs: creates,
// adoptions, mkdirs and lookups into two directories. A name byte below
// 0xc0 picks one of 48 names; from 0xc0 up it takes the next value of a
// rising counter, whose names run past their two-digit padding and so
// stop sorting last. Every answer is checked against a map, and the
// index against its invariant (checkIndex) after every op. The seeds
// are the property test's shapes. Only the first maxFuzzOps pairs are
// read: checkIndex walks the whole table after every op, so an input
// costs time quadratic in its length, and the fuzzer minimizes each new
// input by running it again for every byte or run of bytes it tries to
// drop. 64 ops
// still carry one directory past four of its index's growth steps.
func FuzzDirIndex(f *testing.F) {
	const maxFuzzOps = 64
	const up = 0xff
	f.Add([]byte{0, up, 1, up, 2, up, 0, up, 3, 5})               // an ascending run, a lookup below
	f.Add([]byte{0, up, 0, up, 0, up, 0, 1, 1, 42, 1, up, 3, up}) // an out-of-order name behind a tail, then a tail name again
	f.Add([]byte{0, up, 0, up, 0, 41, 1, 42, 2, 41, 4, up, 4, 1}) // duplicates of tail names
	f.Add([]byte{0, 2, 0, 9, 3, 1, 3, 47, 3, up, 7, 40})          // absent lookups below and above
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*maxFuzzOps {
			data = data[:2*maxFuzzOps]
		}
		tr := NewTree()
		var arena InodeArena
		d0, _ := tr.Mkdir(tr.Root(), "d0")
		dirs := [2]*Inode{tr.Root(), d0}
		refs := [2]map[string]*Inode{{"d0": d0}, {}}
		counter := 40
		for i := 0; i+1 < len(data); i += 2 {
			k := int(data[i]>>2) & 1
			d, ref := dirs[k], refs[k]
			name := fmt.Sprintf("n%02d", int(data[i+1])%48)
			if data[i+1] >= 0xc0 {
				counter++
				name = fmt.Sprintf("n%02d", counter)
			}
			var got *Inode
			var err error
			switch data[i] & 3 {
			case 0:
				got, err = tr.Create(d, name, 1)
			case 1:
				in, _ := arena.NewFile(d, name, 1)
				var adopted bool
				if got, adopted = tr.AdoptOrExisting(in); !adopted {
					got, err = nil, ErrExists
					if ex := d.Child(name); ex != ref[name] {
						t.Fatalf("op %d: adopting %q in %s kept %v, the map has %v", i/2, name, d.Path(), ex, ref[name])
					}
				}
			case 2:
				got, err = tr.Mkdir(d, name)
			case 3:
				if c := d.Child("o"); c != nil { // "o" sorts after every name
					t.Fatalf("op %d: %s.Child(\"o\") = %q", i/2, d.Path(), c.Name)
				}
				if c := d.Child(name); c != ref[name] {
					t.Fatalf("op %d: %s.Child(%q) = %v, want %v", i/2, d.Path(), name, c, ref[name])
				}
				err = ErrExists // creates nothing
			}
			if data[i]&3 != 3 && (err == ErrExists) != (ref[name] != nil) {
				t.Fatalf("op %d: create of %q in %s: err=%v, the map has it: %v", i/2, name, d.Path(), err, ref[name] != nil)
			}
			if err == nil {
				if got.Name != name || tr.Get(got.Ino) != got {
					t.Fatalf("op %d: creating %q in %s linked %v", i/2, name, d.Path(), got)
				}
				ref[name] = got
			}
			if d.NumChildren() != len(ref) {
				t.Fatalf("op %d: %s has %d children, the map %d", i/2, d.Path(), d.NumChildren(), len(ref))
			}
			if err := checkIndex(d); err != nil {
				t.Fatalf("op %d: %s: %v", i/2, d.Path(), err)
			}
		}
		for k, d := range dirs {
			for name, want := range refs[k] {
				if got := d.Child(name); got != want {
					t.Fatalf("%s.Child(%q) = %v, want its own inode", d.Path(), name, got)
				}
			}
		}
	})
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
