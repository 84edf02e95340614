package namespace

import "strings"

// InodeArena allocates promised inodes for deferred adoption. The
// parallel engine's rank lanes create files concurrently, but inode
// numbers come from the tree's single monotonic counter and linking
// mutates shared parent state, so creation is split in two: a lane
// calls NewFile to get a fully usable file inode that is not yet in
// the tree (Ino 0, unlinked), serves ops against it, and the engine
// adopts it into the tree at the next serial barrier (Tree.AdoptOrExisting).
// Each lane owns one arena, so slab carving needs no locking; like the
// tree's own slab, chunked allocation amortizes to ~one allocation per
// inodeSlabSize creates on the steady-state path.
type InodeArena struct {
	slab []Inode
}

// NewFile returns a promised file inode under parent: named, parented,
// and sized, but with Ino 0 and not linked into the tree. The caller
// must guarantee (parent, name) is not already linked and not promised
// by another lane; name validity is checked here exactly as the tree's
// own create path does. The inode supports everything the serve path
// needs (Parent chain, name hash, heat tracking); it must be adopted
// before the namespace is read again.
func (a *InodeArena) NewFile(parent *Inode, name string, size int64) (*Inode, error) {
	return a.NewFileHashed(parent, name, HashName(name), size)
}

// NewFileHashed is NewFile for a caller that already holds
// HashName(name) — the engine's plan phase computed it to route the
// create — so a create hashes its name once.
func (a *InodeArena) NewFileHashed(parent *Inode, name string, hash uint32, size int64) (*Inode, error) {
	if parent == nil || !parent.IsDir {
		return nil, ErrNotDir
	}
	if name == "" || strings.ContainsRune(name, '/') {
		return nil, ErrBadName
	}
	if len(a.slab) == 0 {
		a.slab = make([]Inode, inodeSlabSize)
	}
	in := &a.slab[0]
	a.slab = a.slab[1:]
	*in = Inode{
		Name:     name,
		Parent:   parent,
		Size:     size,
		nameHash: hash,
	}
	return in, nil
}

// Adopt links a promised inode (from InodeArena.NewFile) into the
// tree and panics if it cannot: the inode is already linked, or its
// (parent, name) slot is taken. It is AdoptOrExisting for callers whose
// own dedup must make a duplicate impossible.
func (t *Tree) Adopt(in *Inode) {
	if in.Ino != 0 {
		panic("namespace: Adopt of a linked inode")
	}
	if _, ok := t.AdoptOrExisting(in); !ok {
		panic("namespace: Adopt of a duplicate inode")
	}
}

// AdoptOrExisting links a promised inode into the tree: it assigns the
// next inode number and splices it under its parent, bumping ancestor
// subtree counters, exactly as a direct Create would have. Adoption
// order defines inode-number order, so the engine adopts in sorted rank
// order at barriers to stay deterministic. A write-back lane promises
// without a pre-adoption duplicate check, so the race is decided here:
// when the (parent, name) slot is already linked — by an earlier tick,
// or an earlier create in the same barrier — the promised inode is
// discarded and the existing one returned with adopted=false.
func (t *Tree) AdoptOrExisting(in *Inode) (linked *Inode, adopted bool) {
	if ex := in.Parent.dir.link(in); ex != nil {
		return ex, false
	}
	in.Ino = t.nextIn
	t.nextIn++
	t.byIno = append(t.byIno, in)
	files := in.SubtreeFiles()
	for a := in.Parent; a != nil; a = a.Parent {
		a.dir.subInodes++
		a.dir.subFiles += files
	}
	return in, true
}
