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
// Remove/Child against three directories of one tree and, after every
// step, checks each against its reference: every known name resolves to
// its own inode, unknown and removed names to nil, Children() is the
// insertion order, and NumChildren and the subtree counters add up. The
// step count takes the busiest directory across the 8, 16, .. 1024-slot
// growth boundaries and back down through removals.
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
	var removed []string
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
			for _, name := range removed {
				if ref.byName[name] == nil && d.Child(name) != nil {
					t.Fatalf("step %d: removed name %q still resolves in %s", step, name, d.Path())
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
	}
	const steps = 2600
	for step := 0; step < steps; step++ {
		d := dirs[1+rng.Intn(2)]
		if rng.Intn(8) == 0 {
			d = tr.Root()
		}
		ref := refs[d]
		// A small name space, so duplicates and re-creates are common.
		name := fmt.Sprintf("n%d", rng.Intn(900))
		grow := step < steps*2/3 // then shrink, mostly
		switch op := rng.Intn(10); {
		case op < 3 && grow, op < 1:
			in, err := tr.Create(d, name, 1)
			if (err == ErrExists) != (ref.byName[name] != nil) {
				t.Fatalf("step %d: Create(%q) err=%v, reference has it: %v", step, name, err, ref.byName[name] != nil)
			}
			if err == nil {
				ref.byName[name], ref.order = in, append(ref.order, in)
			}
		case op < 6 && grow, op < 2:
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
				if !adopted || got != promised || tr.Get(got.Ino) != got {
					t.Fatalf("step %d: adopting new %q: got %v adopted=%v", step, name, got, adopted)
				}
				ref.byName[name], ref.order = got, append(ref.order, got)
			}
		case op < 7 && grow:
			// An empty subdirectory: it can be removed like a file.
			in, err := tr.Mkdir(d, name)
			if (err == ErrExists) != (ref.byName[name] != nil) {
				t.Fatalf("step %d: Mkdir(%q) err=%v", step, name, err)
			}
			if err == nil {
				ref.byName[name], ref.order = in, append(ref.order, in)
			}
		default:
			if len(ref.order) == 0 {
				continue
			}
			i := rng.Intn(len(ref.order))
			victim := ref.order[i]
			if victim == dirs[1] || victim == dirs[2] {
				continue
			}
			if err := tr.Remove(victim); err != nil {
				t.Fatalf("step %d: Remove(%q): %v", step, victim.Name, err)
			}
			delete(ref.byName, victim.Name)
			ref.order = append(ref.order[:i:i], ref.order[i+1:]...)
			removed = append(removed, victim.Name)
			if len(removed) > 32 {
				removed = removed[1:]
			}
		}
		check(step)
	}
	for _, d := range dirs[1:] {
		if len(d.dir.index.slots) < 512 {
			t.Fatalf("%s index reached only %d slots; the run must cross several growth boundaries", d.Path(), len(d.dir.index.slots))
		}
	}
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
	if err := tr.Remove(ia); err != nil {
		t.Fatal(err)
	}
	if d.Child(a) != nil || d.Child(b) != ib {
		t.Fatalf("after removing %q: Child(a)=%v Child(b)=%v", a, d.Child(a), d.Child(b))
	}
}
