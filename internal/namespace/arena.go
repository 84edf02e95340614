package namespace

// InodeArena carves file inodes that are not yet in the tree: a create
// builds its inode under the parent (Ino 0, unlinked), the serve path
// can walk it — Parent chain, name hash, heat tracking — and
// Tree.AdoptOrExisting links it once the op is known to be served, so a
// create that stalls leaves the tree as it was. Like the tree's own
// slab, chunked allocation amortizes to ~one allocation per
// inodeSlabSize creates on the steady-state path.
type InodeArena struct {
	slab []Inode
}

// NewFile returns a file inode under parent: named, parented, and
// sized, but with Ino 0 and not linked into the tree. Name validity is
// checked here exactly as the tree's own create path does; whether the
// name is taken is decided at adoption. NewFile remembers nothing: two
// calls for one name return two inodes, and adoption keeps the first.
func (a *InodeArena) NewFile(parent *Inode, name string, size int64) (*Inode, error) {
	if err := checkChild(parent, name); err != nil {
		return nil, err
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
		nameHash: HashName(name),
	}
	return in, nil
}

// Adopt links a carved inode (from InodeArena.NewFile) into the
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

// AdoptOrExisting links a carved inode into the tree: it assigns the
// next inode number and splices it under its parent, bumping ancestor
// subtree counters, exactly as a direct Create would have. Adoption
// order defines inode-number order. The linking probe is the one
// duplicate check: when the (parent, name) slot is already linked, the
// carved inode is discarded and the existing one returned with
// adopted=false.
func (t *Tree) AdoptOrExisting(in *Inode) (linked *Inode, adopted bool) {
	if ex := in.Parent.dir.link(in); ex != nil {
		return ex, false
	}
	in.Ino = t.nextIn
	t.nextIn++
	t.register(in)
	files := in.SubtreeFiles()
	for a := in.Parent; a != nil; a = a.Parent {
		a.dir.subInodes++
		a.dir.subFiles += files
	}
	return in, true
}
