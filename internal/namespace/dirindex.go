package namespace

// dirIndex finds a directory's child by name: an open-addressed hash
// table over the directory's children, keyed by the 32-bit name hash
// every inode caches. A slot packs the child's hash (high half) with
// its inode number (low half), so a probe hit reads the child directly;
// zero is an empty slot. The table is a power of two in size and at
// most half full, so a linear probe ends at an empty slot after a step
// or two, and only a full 32-bit hash match costs a name compare.
// Nothing on a probe or a growth hashes a name: the caller supplies the
// hash on lookup, and growth re-inserts from the old slots alone.
type dirIndex struct {
	slots []uint64
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
		if s := slots[i]; uint32(s>>32) == hash {
			if c := d.tree.at(uint32(s)); c.Name == name {
				return c, i
			}
		}
	}
	return nil, i
}

// find returns the child of that name, or nil and the empty slot that
// indexes it once linked (AdoptOrExisting fills it), growing the table
// first so that it stays at most half full with one more child.
func (d *dirState) find(name string, hash uint32) (*Inode, uint32) {
	if d.index.slots == nil {
		d.index.slots = make([]uint64, minDirSlots)
	} else if 2*(len(d.order)+1) > len(d.index.slots) {
		d.index.grow()
	}
	return d.probe(name, hash)
}

// grow doubles the table, re-inserting every slot by the hash it holds.
func (ix *dirIndex) grow() {
	slots := make([]uint64, 2*len(ix.slots))
	for _, s := range ix.slots {
		if s != 0 {
			place(slots, s)
		}
	}
	ix.slots = slots
}

// place stores a slot the table is known not to hold at the first free
// position of its probe sequence.
func place(slots []uint64, s uint64) {
	mask := uint32(len(slots) - 1)
	i := uint32(s>>32) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = s
}
