package namespace

// dirIndex finds a directory's child by name. An open-addressed hash
// table covers a prefix of the directory's order, order[:n], keyed by
// the 32-bit name hash every inode caches; the rest, the tail, holds
// children linked in name order. A create whose name sorts after every
// child's (last names the largest) cannot be a duplicate, so it joins
// the tail without a probe: the tail ascends and sorts above every
// indexed name. Any other create, and a lookup of a name that does not
// sort last, indexes the tail first (indexTail), so the index covers
// the out-of-order children and is built on first need.
//
// A slot holds the child's position in the order plus one, OR-ed with
// the bits of its hash above the table mask; zero is an empty slot.
// The table is a power of two in size and at most three quarters full,
// so the position always fits below the mask, a linear probe ends at
// an empty slot after a few steps, and only a tag match costs a name
// compare. A child's name is hashed once, when it is first indexed or
// probed for; growth re-places every child by the hash its inode
// caches.
type dirIndex struct {
	slots []uint32
	n     uint32 // children indexed
	last  string // the largest child's name; "" sorts below every name
}

// minDirSlots is the table size a directory's first index allocates.
const minDirSlots = 8

// Child returns the named child, or nil. A name that sorts after every
// child's is answered without the index; any other lookup into a
// directory with a tail indexes it first, so Child writes (see Tree).
func (in *Inode) Child(name string) *Inode {
	d := in.dir
	if d == nil || len(d.order) == 0 || d.sortsLast(name) {
		return nil
	}
	if int(d.index.n) < len(d.order) {
		d.indexTail(len(d.order))
	}
	c, _ := d.probe(name, HashName(name))
	return c
}

// sortsLast reports whether name sorts after every child's name.
func (d *dirState) sortsLast(name string) bool { return name > d.index.last }

// probe walks the name's probe sequence over the indexed children: it
// returns the child of that name, or nil and the empty slot the
// sequence ends at — where the name would be indexed.
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

// indexTail indexes every child, sizing the table once so that it stays
// at most three quarters full with n children. A table that has to
// grow is rebuilt, every child re-placed in order at the first free slot
// of its probe sequence; otherwise only the tail is placed.
func (d *dirState) indexTail(n int) {
	size := max(len(d.index.slots), minDirSlots)
	for 4*n > 3*size {
		size *= 2
	}
	if size != len(d.index.slots) {
		d.index.slots, d.index.n = make([]uint32, size), 0
	}
	mask := uint32(size - 1)
	for int(d.index.n) < len(d.order) {
		h := d.tree.at(d.order[d.index.n]).hash()
		i := h & mask
		for d.index.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.index.add(i, h)
	}
}

// add indexes the first unindexed child, whose name hashes to hash, in
// slot i.
func (ix *dirIndex) add(i, hash uint32) {
	ix.slots[i] = hash&^uint32(len(ix.slots)-1) | (ix.n + 1)
	ix.n++
}
