package namespace

import (
	"slices"
	"sort"
)

// MDSID identifies a metadata server by rank.
type MDSID int

// FragKey names a subtree root: the directory whose children (those in
// the fragment) and everything below them form the subtree, minus any
// nested subtree roots. This matches CephFS, where subtree bounds are
// dirfrags and a subtree-root directory's own inode belongs to the
// parent subtree.
type FragKey struct {
	Dir  Ino
	Frag Frag
}

// Entry is one authority assignment in the partition.
type Entry struct {
	Key  FragKey
	Auth MDSID
}

// Partition maps namespace regions to authoritative metadata servers.
// It always contains a root entry covering the whole namespace; further
// entries carve nested regions out of their enclosing subtree.
//
// A Partition also exposes the two queries migration planning needs:
// resolving the governing entry of an inode (with the forwarding-hop
// count a client-side path traversal would incur) and sizing the set of
// inodes a subtree entry governs.
type Partition struct {
	tree *Tree
	// entries[dir] lists the fragment entries rooted at dir, kept
	// sorted by the start of each fragment's hash range so membership
	// lookups can binary-search. Almost always length 1; longer only
	// after dirfrag splits.
	entries map[Ino][]Entry
	version uint64
	// size bookkeeping for O(1) NumEntries.
	numEntries int
}

// fragStart returns the first 32-bit hash the fragment covers. The
// fragments of one directory are disjoint, so their starts are unique
// and ordering by start is total.
func fragStart(f Frag) uint32 {
	if f.Bits == 0 {
		return 0
	}
	return f.Value << (32 - uint32(f.Bits))
}

// NewPartition creates a partition in which the entire namespace is
// governed by rootAuth, matching a freshly started MDS cluster where
// rank 0 holds the root subtree.
func NewPartition(tree *Tree, rootAuth MDSID) *Partition {
	p := &Partition{
		tree:    tree,
		entries: make(map[Ino][]Entry),
	}
	p.entries[RootIno] = []Entry{{Key: FragKey{Dir: RootIno, Frag: WholeFrag}, Auth: rootAuth}}
	p.numEntries = 1
	return p
}

// Tree returns the namespace the partition governs.
func (p *Partition) Tree() *Tree { return p.tree }

// Version increases on every mutation; callers may use it to invalidate
// cached authority lookups.
func (p *Partition) Version() uint64 { return p.version }

// NumEntries returns the number of subtree entries.
func (p *Partition) NumEntries() int { return p.numEntries }

// RootEntry returns the entry governing the root of the namespace.
func (p *Partition) RootEntry() Entry {
	for _, e := range p.entries[RootIno] {
		if e.Key.Frag.IsWhole() {
			return e
		}
	}
	// The root dir's entries were split; resolution of the root inode
	// itself falls to the lowest-range fragment by convention (entries
	// are kept sorted by range start).
	return p.entries[RootIno][0]
}

// fragEntry returns the one of es, a directory's entries, whose
// fragment holds the directory's child of the given name, if any. The
// name is hashed only where the directory is split; in, when not nil,
// is that child, and its cached hash is used.
func fragEntry(es []Entry, in *Inode, name string) (Entry, bool) {
	switch {
	case len(es) == 0:
		return Entry{}, false
	case es[0].Key.Frag.IsWhole():
		return es[0], true
	case in != nil:
		return findFrag(es, in.hash())
	}
	return findFrag(es, HashName(name))
}

// findFrag returns the one of a directory's entries whose fragment
// contains h, if any.
func findFrag(es []Entry, h uint32) (Entry, bool) {
	// Entries are disjoint and sorted by range start: binary-search the
	// last entry starting at or below h, then confirm containment.
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fragStart(es[mid].Key.Frag) <= h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Entry{}, false
	}
	if e := es[lo-1]; e.Key.Frag.Contains(h) {
		return e, true
	}
	return Entry{}, false
}

// EntriesAt returns the entries rooted at the given directory (empty
// when the directory is not a subtree root). The returned slice is
// shared; callers must not modify it.
func (p *Partition) EntriesAt(dir Ino) []Entry { return p.entries[dir] }

// EntryAt returns the entry with exactly the given key, if present.
func (p *Partition) EntryAt(key FragKey) (Entry, bool) {
	for _, e := range p.entries[key.Dir] {
		if e.Key.Frag == key.Frag {
			return e, true
		}
	}
	return Entry{}, false
}

// GoverningEntry returns the partition entry that governs the inode.
// The governing entry of the root inode is the root entry; for any
// other inode it is the nearest enclosing subtree root found by walking
// up the ancestor chain (exactly how the MDS resolves authority).
func (p *Partition) GoverningEntry(in *Inode) Entry {
	for cur := in; cur.Parent != nil; cur = cur.Parent {
		if e, ok := fragEntry(p.entries[cur.Parent.Ino], cur, ""); ok {
			return e
		}
	}
	return p.RootEntry()
}

// GoverningChildEntry returns the entry that would govern a child of
// parent with the given name, without the child having to exist: it is
// exactly GoverningEntry of such a child. The engine routes
// not-yet-created files with it, so a create is served by the rank that
// will own the inode once adopted. The name is hashed only where parent
// is split.
func (p *Partition) GoverningChildEntry(parent *Inode, name string) Entry {
	if e, ok := fragEntry(p.entries[parent.Ino], nil, name); ok {
		return e
	}
	return p.GoverningEntry(parent)
}

// ResolveChainInto returns the sequence of authorities a path
// traversal from the root to the inode visits (adjacent duplicates
// collapsed, ordered root-first) together with the governing entry. The
// request is served by the last element; every earlier element relays
// (forwards) it — one forward for every authority change along the
// chain of subtree roots, which fine-grained static partitions
// (Dir-Hash) inflate and Figure 14 measures. The authorities are
// written into buf (grown as needed; nil allocates). Once buf has
// reached the chain depth the call performs no allocations, which is
// what the per-op serve path needs. The returned slice aliases buf and
// is only valid until the next call with the same buffer.
func (p *Partition) ResolveChainInto(buf []MDSID, in *Inode) ([]MDSID, Entry) {
	auths := buf[:0]
	var governing Entry
	found := false
	for cur := in; cur.Parent != nil; cur = cur.Parent {
		if e, ok := fragEntry(p.entries[cur.Parent.Ino], cur, ""); ok {
			auths = append(auths, e.Auth)
			if !found {
				governing = e
				found = true
			}
		}
	}
	root := p.RootEntry()
	auths = append(auths, root.Auth)
	if !found {
		governing = root
	}
	// auths is bottom-up; reverse it, then collapse adjacent duplicates,
	// both in place.
	slices.Reverse(auths)
	return slices.Compact(auths), governing
}

// SetAuth changes the authority of an existing entry. It returns false
// if no entry with that key exists.
func (p *Partition) SetAuth(key FragKey, auth MDSID) bool {
	es := p.entries[key.Dir]
	for i, e := range es {
		if e.Key.Frag == key.Frag {
			if es[i].Auth != auth {
				es[i].Auth = auth
				p.version++
			}
			return true
		}
	}
	return false
}

// Carve creates a new subtree entry rooted at dir (whole fragment),
// governed initially by the same authority as its surroundings, and
// returns it. Carving an already-existing root returns the existing
// entry. This is the first half of an export: delimit the subtree, then
// hand it over with SetAuth.
func (p *Partition) Carve(dir *Inode) Entry {
	if !dir.IsDir {
		panic("namespace: carve target must be a directory")
	}
	key := FragKey{Dir: dir.Ino, Frag: WholeFrag}
	if e, ok := p.EntryAt(key); ok {
		return e
	}
	// Authority of the children of dir before the carve: governed by
	// the entry that governs dir itself unless dir already has split
	// fragment entries (in which case Carve with WholeFrag would
	// overlap them; forbid that).
	if len(p.entries[dir.Ino]) > 0 {
		panic("namespace: carve over existing fragment entries")
	}
	e := Entry{Key: key, Auth: p.GoverningEntry(dir).Auth}
	if dir.Ino == RootIno {
		// Root already always has an entry; unreachable, but keep the
		// invariant explicit.
		panic("namespace: root is always carved")
	}
	p.entries[dir.Ino] = append(p.entries[dir.Ino], e)
	p.numEntries++
	p.version++
	return e
}

// SplitEntry replaces the entry at key with its two child fragments,
// both keeping the original authority, and returns the two new entries.
// This is the dirfrag split used when a single subtree must be divided
// to match a migration amount.
func (p *Partition) SplitEntry(key FragKey) (Entry, Entry, bool) {
	es := p.entries[key.Dir]
	for i, e := range es {
		if e.Key.Frag == key.Frag {
			lf, rf := e.Key.Frag.Split()
			left := Entry{Key: FragKey{Dir: key.Dir, Frag: lf}, Auth: e.Auth}
			right := Entry{Key: FragKey{Dir: key.Dir, Frag: rf}, Auth: e.Auth}
			// left reuses the parent's range start; right begins at the
			// midpoint, so inserting it just after left keeps es sorted.
			es[i] = left
			p.entries[key.Dir] = slices.Insert(es, i+1, right)
			p.numEntries++
			p.version++
			return left, right, true
		}
	}
	return Entry{}, Entry{}, false
}

// Absorb removes a non-root entry, merging its region back into the
// enclosing subtree. It returns false for the root entry or a missing
// key.
func (p *Partition) Absorb(key FragKey) bool {
	if key.Dir == RootIno && key.Frag.IsWhole() {
		return false
	}
	es := p.entries[key.Dir]
	for i, e := range es {
		if e.Key.Frag == key.Frag {
			es = append(es[:i], es[i+1:]...)
			if len(es) == 0 {
				delete(p.entries, key.Dir)
			} else {
				p.entries[key.Dir] = es
			}
			p.numEntries--
			p.version++
			return true
		}
	}
	return false
}

// EnclosingAuth returns the authority that would govern the entry's
// span if the entry did not exist (false for the root entry).
func (p *Partition) EnclosingAuth(key FragKey) (MDSID, bool) {
	e, ok := p.enclosingEntry(key)
	if !ok {
		return 0, false
	}
	return e.Auth, true
}

// MergeWithSibling replaces the fragment entry at key and its sibling
// fragment entry with a single parent-fragment entry, provided both
// exist and share the same authority (the CephFS dirfrag merge). It
// returns the merged entry.
func (p *Partition) MergeWithSibling(key FragKey) (Entry, bool) {
	if key.Frag.IsWhole() {
		return Entry{}, false
	}
	self, ok := p.EntryAt(key)
	if !ok {
		return Entry{}, false
	}
	sibKey := FragKey{Dir: key.Dir, Frag: key.Frag.Sibling()}
	sib, ok := p.EntryAt(sibKey)
	if !ok || sib.Auth != self.Auth {
		return Entry{}, false
	}
	// Remove both halves, insert the parent fragment at its sorted
	// position (the filter preserves the relative order of the rest).
	es := p.entries[key.Dir]
	kept := es[:0]
	for _, e := range es {
		if e.Key.Frag != key.Frag && e.Key.Frag != sibKey.Frag {
			kept = append(kept, e)
		}
	}
	merged := Entry{Key: FragKey{Dir: key.Dir, Frag: key.Frag.Parent()}, Auth: self.Auth}
	pos := len(kept)
	for j, e := range kept {
		if fragStart(e.Key.Frag) > fragStart(merged.Key.Frag) {
			pos = j
			break
		}
	}
	p.entries[key.Dir] = slices.Insert(kept, pos, merged)
	p.numEntries--
	p.version++
	return merged, true
}

// Entries returns all entries sorted by (dir, frag) for deterministic
// iteration.
func (p *Partition) Entries() []Entry {
	out := make([]Entry, 0, p.numEntries)
	for _, es := range p.entries {
		out = append(out, es...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Frag.Bits != b.Frag.Bits {
			return a.Frag.Bits < b.Frag.Bits
		}
		return a.Frag.Value < b.Frag.Value
	})
	return out
}

// EntriesOf returns the entries currently assigned to the given MDS.
func (p *Partition) EntriesOf(mds MDSID) []Entry {
	var out []Entry
	for _, e := range p.Entries() {
		if e.Auth == mds {
			out = append(out, e)
		}
	}
	return out
}

// rawSize returns the number of inodes in the span of the key before
// nested entries are carved out: the subtree sizes of the covered
// children, plus 1 for the root inode itself when key is the root entry
// (the root inode belongs to the root subtree).
func (p *Partition) rawSize(key FragKey) int {
	dir := p.tree.Get(key.Dir)
	if dir == nil {
		return 0
	}
	n := 0
	if key.Frag.IsWhole() {
		n = dir.SubtreeInodes() - 1 // children and below; not the dir itself
	} else {
		for i := 0; i < dir.NumChildren(); i++ {
			if c := dir.ChildAt(i); c.InFrag(key.Frag) {
				n += c.SubtreeInodes()
			}
		}
	}
	if key.Dir == RootIno && key.Frag.IsWhole() {
		n++ // the root inode itself
	}
	return n
}

// enclosingEntry returns the entry that would govern the span of key if
// key's own entry did not exist.
func (p *Partition) enclosingEntry(key FragKey) (Entry, bool) {
	if key.Dir == RootIno && key.Frag.IsWhole() {
		return Entry{}, false
	}
	// A split fragment's enclosing entry may be an ancestor fragment of
	// the same directory.
	f := key.Frag
	for !f.IsWhole() {
		f = f.Parent()
		if e, ok := p.EntryAt(FragKey{Dir: key.Dir, Frag: f}); ok {
			return e, true
		}
	}
	dir := p.tree.Get(key.Dir)
	if dir == nil {
		return Entry{}, false
	}
	return p.GoverningEntry(dir), true
}

// SubtreeSizes returns, for every entry, the number of inodes it
// governs (its raw span minus the spans of entries nested directly
// inside it). The sum over all entries equals the total inode count.
func (p *Partition) SubtreeSizes() map[FragKey]int {
	sizes := make(map[FragKey]int, p.numEntries)
	for _, e := range p.Entries() {
		sizes[e.Key] = p.rawSize(e.Key)
	}
	for _, e := range p.Entries() {
		if enc, ok := p.enclosingEntry(e.Key); ok {
			sizes[enc.Key] -= p.rawSize(e.Key)
		}
	}
	return sizes
}

// GovernedInodes returns the number of inodes the entry at key governs.
func (p *Partition) GovernedInodes(key FragKey) int {
	n := p.rawSize(key)
	for _, es := range p.entries { // a sum: the map's order does not matter
		for _, e := range es {
			if e.Key == key {
				continue
			}
			if enc, ok := p.enclosingEntry(e.Key); ok && enc.Key == key {
				n -= p.rawSize(e.Key)
			}
		}
	}
	return n
}

// UnvisitedIn returns how many inodes in the entry's raw span have
// never been accessed, together with the span's total inode count.
// Nested entries are not subtracted; the ratio is used as a locality
// signal, not an exact census.
func (p *Partition) UnvisitedIn(key FragKey) (unvisited, total int) {
	dir := p.tree.Get(key.Dir)
	if dir == nil {
		return 0, 0
	}
	if key.Frag.IsWhole() {
		return dir.UnvisitedBelow()
	}
	for i := 0; i < dir.NumChildren(); i++ {
		if c := dir.ChildAt(i); c.InFrag(key.Frag) {
			total += c.SubtreeFiles()
			unvisited += c.SubtreeFiles() - c.VisitedFiles()
		}
	}
	return unvisited, total
}

// InodesPerMDS returns the number of inodes governed by each MDS,
// indexed by rank, sized to at least n entries.
func (p *Partition) InodesPerMDS(n int) []int {
	counts := make([]int, n)
	for key, sz := range p.SubtreeSizes() {
		e, _ := p.EntryAt(key)
		if int(e.Auth) >= len(counts) {
			grown := make([]int, e.Auth+1)
			copy(grown, counts)
			counts = grown
		}
		counts[e.Auth] += sz
	}
	return counts
}
