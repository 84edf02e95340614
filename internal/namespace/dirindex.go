package namespace

// dirIndex finds a directory's child by name: an open-addressed hash
// table over the directory's children, keyed by the 32-bit name hash
// every inode caches. A slot holds the child's position in the
// directory's order plus one, OR-ed with the bits of its hash above the
// table mask; zero is an empty slot. The table is a power of two in
// size and at most three quarters full, so the position always fits
// below the mask, a linear probe ends at an empty slot after a few
// steps, and only a tag match costs a name compare. Nothing on a probe
// or a growth hashes a name: the caller supplies the hash on lookup,
// and growth re-places every child by the hash its inode caches.
type dirIndex struct {
	slots []uint32
}

// minDirSlots is the table size a directory's first child allocates.
const minDirSlots = 8

// ChildHashed is Child for a caller that already holds HashName(name).
func (in *Inode) ChildHashed(name string, hash uint32) *Inode {
	if in.dir == nil || in.dir.index.slots == nil {
		return nil
	}
	c, _ := in.dir.probe(name, hash)
	return c
}

// probe walks the name's probe sequence: it returns the child of that
// name, or nil and the empty slot the sequence ends at — where the name
// would be indexed.
func (d *dirState) probe(name string, hash uint32) (*Inode, uint32) {
	slots := d.index.slots
	mask := uint32(len(slots) - 1)
	i := hash & mask
	for ; slots[i] != 0; i = (i + 1) & mask {
		if s := slots[i]; s&^mask == hash&^mask {
			if c := d.tree.at(d.order[s&mask-1]); c.Name == name {
				return c, i
			}
		}
	}
	return nil, i
}

// find returns the child of that name, or nil and the empty slot that
// indexes it once linked (AdoptOrExisting fills it), growing the table
// first so that it stays at most three quarters full with one more
// child.
func (d *dirState) find(name string, hash uint32) (*Inode, uint32) {
	if d.index.slots == nil {
		d.index.slots = make([]uint32, minDirSlots)
	} else if 4*(len(d.order)+1) > 3*len(d.index.slots) {
		d.grow()
	}
	return d.probe(name, hash)
}

// grow doubles the table and re-places every child, in order, at the
// first free slot of its probe sequence.
func (d *dirState) grow() {
	d.index.slots = make([]uint32, 2*len(d.index.slots))
	mask := uint32(len(d.index.slots) - 1)
	for pos, n := range d.order {
		h := d.tree.at(n).nameHash
		i := h & mask
		for d.index.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.index.set(i, h, pos)
	}
}

// set indexes the child at position pos of the order, whose name hashes
// to hash, in slot i.
func (ix *dirIndex) set(i, hash uint32, pos int) {
	ix.slots[i] = hash&^uint32(len(ix.slots)-1) | uint32(pos+1)
}
