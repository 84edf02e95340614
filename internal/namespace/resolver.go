package namespace

// Resolver memoizes governing-entry resolution per directory.
// GoverningEntry walks the ancestor chain on every call — O(depth) map
// lookups — but the partition mutates rarely (a version bump per
// SetAuth/Carve/Split/Absorb/Merge) while the serve path resolves
// authority on every op. GoverningEntry(in) is by construction
// GoverningChildEntry(in.Parent, HashName(in.Name)): a function of the
// parent directory, and of the name hash only where that directory is
// split into fragments. So the memo holds one slot per directory — not
// per inode — and a file created after the slot was filled resolves
// through it without growing anything.
//
// Invalidation rule: any partition mutation bumps Version(); the resolver
// compares the partition version against the version it last observed and,
// on mismatch, advances a generation counter that logically empties the
// whole cache in O(1) (slots are stamped with the generation that filled
// them, so stale slots simply miss). Directories are numbered densely at
// Mkdir (Inode.DirNum), so the cache is a flat slice indexed by that
// number however directory and file inode numbers interleave.
type Resolver struct {
	p     *Partition
	ver   uint64 // partition version the current generation matches
	gen   uint64 // bumped whenever ver falls behind the partition
	slots []resolverSlot
}

// resolverSlot is what governs one directory's children.
type resolverSlot struct {
	gen uint64
	// entry governs every child no fragment entry covers: the
	// directory's whole-fragment entry where it is a subtree root,
	// otherwise the entry governing the directory itself.
	entry Entry
	// frags is the directory's fragment entries when it is split. It
	// aliases the partition's own sorted slice, which only changes under
	// a version bump — that is, under a generation this slot misses.
	frags []Entry
}

// NewResolver creates a resolver over the partition. The cache starts
// empty; it grows to the tree's directory count.
func NewResolver(p *Partition) *Resolver {
	return &Resolver{p: p, ver: p.Version(), gen: 1}
}

// Entry returns the partition entry governing the inode, equal to
// p.GoverningEntry(in) at the partition's current version. Amortized
// O(1): a version check, a slice index, and (on miss) one ancestor walk
// through the memo whose result is cached, for every child of the
// inode's directory, until the next partition mutation.
func (r *Resolver) Entry(in *Inode) Entry {
	if in.Parent == nil {
		return r.p.RootEntry()
	}
	return r.ChildEntry(in.Parent, in.nameHash)
}

// ChildEntry returns the entry that governs — or, for a name not yet
// created, would govern — the child of dir with the given name hash,
// equal to p.GoverningChildEntry(dir, nameHash).
func (r *Resolver) ChildEntry(dir *Inode, nameHash uint32) Entry {
	if n := dir.DirNum(); r.p.version == r.ver && int(n) < len(r.slots) {
		// The steady state: a filled slot of an unsplit directory.
		if s := &r.slots[n]; s.gen == r.gen && len(s.frags) == 0 {
			return s.entry
		}
	}
	return r.childEntrySlow(dir, nameHash)
}

func (r *Resolver) childEntrySlow(dir *Inode, nameHash uint32) Entry {
	if v := r.p.version; v != r.ver {
		r.ver = v
		r.gen++
	}
	n := int(dir.DirNum())
	if n >= len(r.slots) {
		// Directories made since the last growth; numDirs covers them all.
		r.slots = append(r.slots, make([]resolverSlot, int(r.p.tree.numDirs)-len(r.slots))...)
	}
	if r.slots[n].gen != r.gen {
		s := resolverSlot{gen: r.gen}
		if es := r.p.entries[dir.Ino]; len(es) == 1 && es[0].Key.Frag.IsWhole() {
			s.entry = es[0]
		} else {
			s.entry, s.frags = r.Entry(dir), es
		}
		r.slots[n] = s
	}
	s := &r.slots[n]
	if e, ok := findFrag(s.frags, nameHash); ok {
		return e
	}
	return s.entry
}

// AuthOf returns the MDS authoritative for the inode (cached).
func (r *Resolver) AuthOf(in *Inode) MDSID {
	return r.Entry(in).Auth
}
