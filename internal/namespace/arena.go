package namespace

// InodeArena allocates promised inodes for deferred adoption. The
// engine's rank lanes create files during a serve round, but inode
// numbers come from the tree's single monotonic counter and the round
// barrier fixes their order, so creation is split in two: a lane
// promises a fully usable file inode that is not yet in the tree (Ino
// 0, unlinked), serves ops against it, and the engine adopts it into
// the tree at the round barrier (Tree.AdoptOrExisting). Each lane owns
// one arena; like the tree's own slab, chunked allocation amortizes to
// ~one allocation per inodeSlabSize creates on the steady-state path.
//
// Between two barriers — a round — the arena is also the lane's view of
// what is about to exist: Promise remembers the round's promises by
// (parent, name), EndRound forgets them. The memory is an open-addressed
// table indexed by the name hash the caller routed the create with
// (mixed with the parent, so one name under many directories spreads),
// at most half full; a slot is live while its stamp is the current
// round's, so forgetting a round is one increment.
type InodeArena struct {
	slab []Inode

	slots []promiseSlot // power-of-two sized, or nil before the first promise
	round uint32
	live  int // promises made this round
}

// promiseSlot holds a promise of the round it is stamped with; in is
// nil in a slot never written.
type promiseSlot struct {
	round uint32
	in    *Inode
}

// holds reports whether the slot is a promise of the current round.
func (a *InodeArena) holds(s *promiseSlot) bool {
	return s.in != nil && s.round == a.round
}

// promiseHome is where (parent, hash)'s probe sequence starts, before
// masking to the table size.
func promiseHome(parent *Inode, hash uint32) uint32 {
	return hash ^ uint32(parent.Ino)*0x9e3779b1
}

// minPromiseSlots is the table size an arena's first promise allocates.
const minPromiseSlots = 1024

// NewFile returns a promised file inode under parent: named, parented,
// and sized, but with Ino 0 and not linked into the tree. The caller
// must guarantee (parent, name) is not already linked and not promised
// by another lane; name validity is checked here exactly as the tree's
// own create path does. The inode supports everything the serve path
// needs (Parent chain, name hash, heat tracking); it must be adopted
// before the namespace is read again. NewFile remembers nothing: two
// calls for one name return two inodes, and adoption keeps the first.
func (a *InodeArena) NewFile(parent *Inode, name string, size int64) (*Inode, error) {
	if err := checkChild(parent, name); err != nil {
		return nil, err
	}
	return a.carve(parent, name, HashName(name), size), nil
}

// carve takes the next slab inode for a file whose (parent, name)
// passed checkChild.
func (a *InodeArena) carve(parent *Inode, name string, hash uint32, size int64) *Inode {
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
	return in
}

// Promise returns the inode this arena promised for (parent, name) this
// round, making the promise — as NewFile does, errors included — when
// it is the first: a name another client already promised acts on that
// about-to-exist inode. fresh reports that this call made the promise;
// the caller owes the tree one adoption per fresh promise. hash must be
// HashName(name), which the caller holds from routing the create. Names
// sharing a hash (it is 32 bits) or a table position probe linearly; a
// hit is confirmed by parent and name.
func (a *InodeArena) Promise(parent *Inode, name string, hash uint32, size int64) (in *Inode, fresh bool, err error) {
	if err = checkChild(parent, name); err != nil {
		return nil, false, err
	}
	if 2*(a.live+1) > len(a.slots) {
		a.growPromises()
	}
	mask := uint32(len(a.slots) - 1)
	i := promiseHome(parent, hash) & mask
	for ; a.holds(&a.slots[i]); i = (i + 1) & mask {
		if p := a.slots[i].in; p.nameHash == hash && p.Parent == parent && p.Name == name {
			return p, false, nil
		}
	}
	in = a.carve(parent, name, hash, size)
	a.slots[i] = promiseSlot{a.round, in}
	a.live++
	return in, true, nil
}

// growPromises doubles the table (or makes the first one), carrying
// over the round's live promises.
func (a *InodeArena) growPromises() {
	old := a.slots
	a.slots = make([]promiseSlot, max(2*len(old), minPromiseSlots))
	mask := uint32(len(a.slots) - 1)
	for _, s := range old {
		if a.holds(&s) {
			i := promiseHome(s.in.Parent, s.in.nameHash) & mask
			for a.slots[i].in != nil {
				i = (i + 1) & mask
			}
			a.slots[i] = s
		}
	}
}

// EndRound forgets the round's promises; the inodes themselves belong
// to whoever adopts them. When the stamp wraps, slots written 2^32
// rounds ago would read as live again, so the table is wiped.
func (a *InodeArena) EndRound() {
	a.live = 0
	if a.round++; a.round == 0 {
		clear(a.slots)
	}
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
	t.register(in)
	files := in.SubtreeFiles()
	for a := in.Parent; a != nil; a = a.Parent {
		a.dir.subInodes++
		a.dir.subFiles += files
	}
	return in, true
}
