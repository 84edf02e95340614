package namespace

// InodeArena carves file inodes that are not yet in the tree: a create
// writes its inode under the parent into the tree's next inode slot
// (Ino 0, unlinked), the serve path can walk it — Parent chain, name
// hash, heat tracking — and Tree.AdoptOrExisting links that slot once
// the op is known to be served, so a create that stalls leaves the tree
// as it was. A carve stays valid until the next carve or link in its
// tree (Create and Mkdir carve and link). The arena holds no state.
type InodeArena struct{}

// NewFile returns a file inode under parent: named, parented, and
// sized, but with Ino 0 and not linked into the tree. Name validity is
// checked here exactly as the tree's own create path does; whether the
// name is taken is decided at adoption. NewFile remembers nothing: two
// calls for one name carve twice, and adoption keeps the first.
func (*InodeArena) NewFile(parent *Inode, name string, size int64) (*Inode, error) {
	if err := checkChild(parent, name); err != nil {
		return nil, err
	}
	return parent.dir.tree.carve(parent, name, size, nil), nil
}

// carve writes an unlinked inode under parent into the tree's next
// inode slot: a directory when dir is non-nil, else a file of size
// bytes. It is the one carve of both create paths, the tree's own
// Create/Mkdir and the serve path's NewFile.
func (t *Tree) carve(parent *Inode, name string, size int64, dir *dirState) *Inode {
	// Field by field, not a struct copy: every field is reset, and the
	// three pointers pay one write barrier each, not a bulk one.
	in := t.next()
	in.Hot, in.nameHash, in.IsDir, in.visited, in.hashed = Hot{}, 0, dir != nil, false, false
	in.Parent, in.Size, in.dir, in.Ino, in.Name = parent, size, dir, 0, name
	return in
}

// AdoptOrExisting links a carved inode — the tree's latest carve, in
// its next inode slot — into the tree as the next inode number, splices
// it under its parent and bumps ancestor subtree counters, exactly as a
// direct Create would have, and returns the linked inode. Adoption
// order defines inode-number order. A name that sorts after every
// sibling's cannot be taken and is linked without a probe; any other is
// checked by the linking probe: when the (parent, name) slot is already
// linked, the carved inode is discarded and the existing one returned
// with adopted=false.
func (t *Tree) AdoptOrExisting(in *Inode) (linked *Inode, adopted bool) {
	d := in.Parent.dir
	ordered, slot := d.sortsLast(in.Name), uint32(0)
	if !ordered {
		d.indexTail(len(d.order) + 1)
		var ex *Inode
		if ex, slot = d.probe(in.Name, in.hash()); ex != nil {
			return ex, false
		}
	}
	in.Ino = t.nextIn
	t.nextIn++
	if ordered {
		d.index.last = in.Name
	} else {
		d.index.add(slot, in.hash())
	}
	d.order = append(d.order, uint32(in.Ino))
	files := in.SubtreeFiles()
	for a := in.Parent; a != nil; a = a.Parent {
		a.dir.subInodes++
		a.dir.subFiles += files
	}
	return in, true
}
