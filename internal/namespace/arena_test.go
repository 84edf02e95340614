package namespace

import (
	"errors"
	"math"
	"testing"
)

// promise is Promise with the hash every caller passes.
func promise(t *testing.T, a *InodeArena, parent *Inode, name string) (*Inode, bool) {
	t.Helper()
	in, fresh, err := a.Promise(parent, name, HashName(name), 1)
	if err != nil {
		t.Fatalf("Promise(%q): %v", name, err)
	}
	if in.Parent != parent || in.Name != name || in.Ino != 0 {
		t.Fatalf("Promise(%q) = %+v", name, in)
	}
	return in, fresh
}

// TestArenaPromise: within a round one (parent, name) is one inode,
// whatever its hash shares with other names or its name with other
// parents; the round's end forgets it.
func TestArenaPromise(t *testing.T) {
	tr := NewTree()
	d1, _ := tr.Mkdir(tr.Root(), "d1")
	d2, _ := tr.Mkdir(tr.Root(), "d2")
	var a InodeArena

	first, fresh := promise(t, &a, d1, "f")
	if !fresh {
		t.Fatal("the first promise of a name must be fresh")
	}
	if again, fresh := promise(t, &a, d1, "f"); again != first || fresh {
		t.Fatalf("the same (parent, name) twice in a round: got %p fresh=%v, want %p", again, fresh, first)
	}
	if other, fresh := promise(t, &a, d2, "f"); other == first || !fresh {
		t.Fatal("one name under two parents must be two promises")
	}
	x, y := collidingNames(t)
	ix, fx := promise(t, &a, d1, x)
	iy, fy := promise(t, &a, d1, y)
	if ix == iy || !fx || !fy {
		t.Fatalf("names sharing a hash (%q, %q) must be two promises", x, y)
	}
	if again, fresh := promise(t, &a, d1, y); again != iy || fresh {
		t.Fatal("a colliding name must still find its own promise")
	}

	a.EndRound()
	if next, fresh := promise(t, &a, d1, "f"); next == first || !fresh {
		t.Fatal("a promise must be forgotten after EndRound")
	}
}

// TestArenaPromiseGrowth: 10 000 promises in one round outgrow the
// initial table several times over and every one still dedups.
func TestArenaPromiseGrowth(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	var a InodeArena
	const n = 10000
	made := make([]*Inode, n)
	for i := range made {
		var fresh bool
		if made[i], fresh = promise(t, &a, d, fileName("f", i)); !fresh {
			t.Fatalf("promise %d was not fresh", i)
		}
	}
	if len(a.slots) < 2*n || len(a.slots) <= minPromiseSlots {
		t.Fatalf("table holds %d slots for %d promises", len(a.slots), n)
	}
	for i, want := range made {
		if got, fresh := promise(t, &a, d, fileName("f", i)); got != want || fresh {
			t.Fatalf("promise %d lost across growth", i)
		}
	}
}

// TestArenaPromiseRoundWrap: a slot stamped in round r must not read as
// live when the 32-bit round counter comes back to r.
func TestArenaPromiseRoundWrap(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	var a InodeArena
	old, _ := promise(t, &a, d, "f") // stamped with round 0
	a.EndRound()
	a.round = math.MaxUint32
	last, _ := promise(t, &a, d, "g")
	a.EndRound() // wraps to round 0
	if a.round != 0 {
		t.Fatalf("round %d after the wrap", a.round)
	}
	if got, fresh := promise(t, &a, d, "f"); got == old || !fresh {
		t.Fatal("the wrap resurrected a promise of 2^32 rounds ago")
	}
	if got, fresh := promise(t, &a, d, "g"); got == last || !fresh {
		t.Fatal("the wrap kept the previous round's promise")
	}
}

// TestArenaPromiseErrors: Promise rejects what NewFile rejects, with
// the same errors, and remembers nothing of it.
func TestArenaPromiseErrors(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	file, _ := tr.Create(d, "file", 1)
	var a, b InodeArena
	for _, tc := range []struct {
		parent *Inode
		name   string
	}{
		{d, ""}, {d, "a/b"}, {nil, "x"}, {file, "x"},
	} {
		_, want := a.NewFile(tc.parent, tc.name, 1)
		in, fresh, err := b.Promise(tc.parent, tc.name, HashName(tc.name), 1)
		if want == nil || !errors.Is(err, want) || in != nil || fresh {
			t.Errorf("Promise(%v, %q) = %v, %v, %v; NewFile's error is %v", tc.parent, tc.name, in, fresh, err, want)
		}
	}
	if b.live != 0 {
		t.Fatalf("%d promises remembered from rejected names", b.live)
	}
}

// TestRegistryBlocks: the inode registry across a block boundary, fed
// by creates and by adopted arena inodes alike.
func TestRegistryBlocks(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	var a InodeArena
	var all []*Inode
	for i := 0; i < 2*inoBlock+10; i++ {
		var in *Inode
		if i%2 == 0 {
			in, _ = tr.Create(d, fileName("f", i), 1)
		} else {
			in, _ = a.NewFile(d, fileName("f", i), 1)
			tr.Adopt(in)
		}
		all = append(all, in)
	}
	if len(tr.byIno) != 3 {
		t.Fatalf("%d registry blocks for %d inodes", len(tr.byIno), tr.NumInodes())
	}
	last := all[len(all)-1]
	if tr.MaxIno() != last.Ino || last.Ino != Ino(tr.NumInodes()) {
		t.Fatalf("MaxIno %d, last inode %d of %d", tr.MaxIno(), last.Ino, tr.NumInodes())
	}
	for _, in := range all {
		if tr.Get(in.Ino) != in {
			t.Fatalf("Get(%d) does not return the inode numbered %d", in.Ino, in.Ino)
		}
	}
	if tr.Get(RootIno) != tr.Root() || tr.Get(d.Ino) != d || tr.Get(0) != nil {
		t.Fatal("the first block lost the root, /d, or gained an inode 0")
	}
	for _, ino := range []Ino{tr.MaxIno() + 1, 3 * inoBlock, 3*inoBlock + 1, 1 << 40} {
		if tr.Get(ino) != nil {
			t.Fatalf("Get(%d) past MaxIno %d is not nil", ino, tr.MaxIno())
		}
	}
	gone := all[inoBlock] // in the second block
	if err := tr.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if tr.Get(gone.Ino) != nil || tr.Get(gone.Ino-1) == nil || tr.Get(gone.Ino+1) == nil {
		t.Fatal("Remove must nil exactly the removed inode's slot")
	}
	if tr.MaxIno() != last.Ino {
		t.Fatal("Remove moved MaxIno")
	}
}
