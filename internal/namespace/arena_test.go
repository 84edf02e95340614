package namespace

import (
	"errors"
	"testing"
)

// TestArenaNewFileErrors: NewFile rejects what the tree's own create
// path rejects, with the same errors.
func TestArenaNewFileErrors(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	file, _ := tr.Create(d, "file", 1)
	var a InodeArena
	for _, tc := range []struct {
		parent *Inode
		name   string
		want   error
	}{
		{d, "", ErrBadName}, {d, "a/b", ErrBadName}, {nil, "x", ErrNotDir}, {file, "x", ErrNotDir},
	} {
		_, want := tr.Create(tc.parent, tc.name, 1)
		in, err := a.NewFile(tc.parent, tc.name, 1)
		if !errors.Is(want, tc.want) || !errors.Is(err, tc.want) || in != nil {
			t.Errorf("NewFile(%v, %q) = %v, %v; Create's error is %v, want %v", tc.parent, tc.name, in, err, want, tc.want)
		}
	}
}

// TestRegistryBlocks: numbered inode slots across slab boundaries, fed
// by creates and by adopted arena inodes alike.
func TestRegistryBlocks(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	var a InodeArena
	var all []*Inode
	for i := 0; i < 2*inodeSlabSize+10; i++ {
		var in *Inode
		if i%2 == 0 {
			in, _ = tr.Create(d, fileName("f", i), 1)
		} else {
			in, _ = a.NewFile(d, fileName("f", i), 1)
			in, _ = tr.AdoptOrExisting(in)
		}
		all = append(all, in)
	}
	if len(tr.slabs) != 3 {
		t.Fatalf("%d slabs for %d inodes", len(tr.slabs), tr.NumInodes())
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
		t.Fatal("the first slab lost the root, /d, or gained an inode 0")
	}
	for _, ino := range []Ino{tr.MaxIno() + 1, 3 * inodeSlabSize, 3*inodeSlabSize + 1, 1 << 40} {
		if tr.Get(ino) != nil {
			t.Fatalf("Get(%d) past MaxIno %d is not nil", ino, tr.MaxIno())
		}
	}
}
