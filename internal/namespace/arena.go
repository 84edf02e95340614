package namespace

// InodeArena carves file inodes that are not yet in the tree: a create
// builds its inode under the parent (Ino 0, unlinked), the serve path
// can walk it — Parent chain, name hash, heat tracking — and
// Tree.AdoptOrExisting links a copy of it once the op is known to be
// served, so a create that stalls leaves the tree, and the heap, as it
// was. The arena holds one scratch inode: a carve stays valid until the
// next NewFile.
type InodeArena struct {
	scratch Inode
}

// NewFile returns a file inode under parent: named, parented, and
// sized, but with Ino 0 and not linked into the tree. Name validity is
// checked here exactly as the tree's own create path does; whether the
// name is taken is decided at adoption. NewFile remembers nothing: two
// calls for one name carve twice, and adoption keeps the first.
func (a *InodeArena) NewFile(parent *Inode, name string, size int64) (*Inode, error) {
	if err := checkChild(parent, name); err != nil {
		return nil, err
	}
	a.scratch = Inode{Name: name, Parent: parent, Size: size, nameHash: HashName(name)}
	return &a.scratch, nil
}

// AdoptOrExisting links a carved inode into the tree: it copies it into
// the slot of the next inode number, splices that under its parent and
// bumps ancestor subtree counters, exactly as a direct Create would
// have, and returns the linked copy. Adoption order defines
// inode-number order. A name that sorts after every sibling's cannot be
// taken and is linked without a probe; any other is checked by the
// linking probe: when the (parent, name) slot is already linked, the
// carved inode is discarded and the existing one returned with
// adopted=false.
func (t *Tree) AdoptOrExisting(in *Inode) (linked *Inode, adopted bool) {
	d := in.Parent.dir
	ordered, slot := d.sortsLast(in.Name), uint32(0)
	if !ordered {
		d.indexTail(len(d.order) + 1)
		var ex *Inode
		if ex, slot = d.probe(in.Name, in.nameHash); ex != nil {
			return ex, false
		}
	}
	if t.nextIn%inodeSlabSize == 0 {
		t.slabs = append(t.slabs, new([inodeSlabSize]Inode))
	}
	c := t.at(uint32(t.nextIn))
	*c = *in
	c.Ino = t.nextIn
	t.nextIn++
	if ordered {
		d.index.last = uint32(len(d.order))
	} else {
		d.index.add(slot, c.nameHash)
	}
	d.order = append(d.order, uint32(c.Ino))
	files := c.SubtreeFiles()
	for a := c.Parent; a != nil; a = a.Parent {
		a.dir.subInodes++
		a.dir.subFiles += files
	}
	return c, true
}
