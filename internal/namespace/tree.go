package namespace

import (
	"errors"
	"math/bits"
	"strings"
)

// Ino is a unique inode number.
type Ino uint64

// RootIno is the inode number of the root directory.
const RootIno Ino = 1

// Common namespace errors.
var (
	ErrExists   = errors.New("namespace: entry already exists")
	ErrNotFound = errors.New("namespace: entry not found")
	ErrNotDir   = errors.New("namespace: not a directory")
	ErrBadName  = errors.New("namespace: invalid name")
)

// Inode is a node in the namespace tree: either a directory (with
// children) or a file. The Hot field carries the per-inode access
// history the paper's stats-recording keeps (a boolean queue of the
// last n epochs); it belongs to the inode in the real implementation
// too, so it lives here rather than in a side table.
//
// Everything only a directory needs sits behind dir, so the inode a
// file pays for is 64 bytes: dir != nil ⇔ IsDir. A file is its own
// subtree — one inode, one file — and keeps a single visited bit. A
// slab is page-aligned, so every inode fills exactly one cache line,
// and the fields a served op reads (access history, name hash, parent,
// size) share it with the rest.
type Inode struct {
	// Hot is the runtime access-history annotation.
	Hot Hot
	// nameHash caches HashName(Name) once hashed is set: fragment
	// membership and the parent's name index key on it, and only a split
	// directory or an indexed one reads it (see hash).
	nameHash uint32
	IsDir    bool
	visited  bool // a file's whole visited count: MarkVisited has run
	hashed   bool

	Parent *Inode
	Size   int64     // file size in bytes; 0 for directories
	dir    *dirState // children and subtree counters; nil on files

	Ino  Ino
	Name string
}

// dirState is the directory-only part of an inode.
type dirState struct {
	index dirIndex // finds a child by name; empty until first needed
	order []uint32 // the children's inode numbers in insertion order: ascending
	tree  *Tree    // resolves order and index numbers to inodes

	// subInodes is the number of inodes in the subtree rooted here,
	// including the directory itself. Maintained incrementally on create
	// so subtree sizing during migration planning is O(1).
	subInodes int

	// subFiles is the number of regular files in the subtree rooted
	// here. It sizes the unvisited-volume estimates: directory inodes
	// are containers, not scan targets.
	subFiles int

	// visitedDesc counts the inodes in the subtree rooted here
	// (including the directory) that have ever been accessed. It is
	// maintained by MarkVisited on first-ever visits and feeds the
	// spatial-locality factor beta (the unvisited-inode ratio).
	// visitedFiles counts only the regular files among them.
	visitedDesc, visitedFiles int

	// num numbers the directories of a tree densely in creation order
	// (the root is 0); see Inode.DirNum.
	num uint32
}

// DirNum returns a directory's dense creation-order number (the root is
// 0; directories only). The per-directory tables — the Resolver memo,
// the trace windows, the heat table — are slices indexed by it.
func (in *Inode) DirNum() uint32 { return in.dir.num }

// DirChain memoizes one ancestor walk: the directories a served op
// under parent charges, from parent up to the root of its governing
// subtree entry. The tree has no rename or unlink, so a (parent, root)
// pair maps to the same numbers for the tree's life, and keeping the
// last pair is enough: a rank serves runs of one client's consecutive
// ops, which mostly share their parent. The zero DirChain is ready.
type DirChain struct {
	parent *Inode
	root   Ino
	nums   []uint32
}

// Nums returns the DirNums from parent up to and including the
// ancestor whose inode number is root (the tree root when none is),
// deepest first; empty for a nil parent. The first is the largest, as a
// directory is numbered after its parent. The slice is valid until the
// next call.
func (c *DirChain) Nums(parent *Inode, root Ino) []uint32 {
	if parent != c.parent || root != c.root {
		c.parent, c.root, c.nums = parent, root, c.nums[:0]
		for d, past := parent, false; d != nil && !past; d = d.Parent {
			c.nums, past = append(c.nums, d.dir.num), d.Ino == root
		}
	}
	return c.nums
}

// MarkVisited records this inode's first-ever access on every ancestor's
// visited-descendant counter. Callers must invoke it exactly once per
// inode (the trace collector does, on the first access).
func (in *Inode) MarkVisited() {
	a, files := in, 0
	if !in.IsDir {
		in.visited = true
		a, files = in.Parent, 1
	}
	for ; a != nil; a = a.Parent {
		a.dir.visitedDesc++
		a.dir.visitedFiles += files
	}
}

// VisitedDesc returns how many inodes at and below this one have ever
// been accessed.
func (in *Inode) VisitedDesc() int {
	if in.dir != nil {
		return in.dir.visitedDesc
	}
	return in.VisitedFiles()
}

// VisitedFiles counts only the regular files among VisitedDesc.
func (in *Inode) VisitedFiles() int {
	if in.dir != nil {
		return in.dir.visitedFiles
	}
	if in.visited {
		return 1
	}
	return 0
}

// UnvisitedBelow returns how many of the regular files in this
// directory's subtree have never been accessed, together with the
// subtree's total file count. Directory inodes are excluded: they are
// containers, not scan targets, and counting them would make fully
// scanned regions look partially unvisited.
func (in *Inode) UnvisitedBelow() (unvisited, total int) {
	total = in.SubtreeFiles()
	return total - in.VisitedFiles(), total
}

// SubtreeFiles returns the number of regular files at and below this
// inode (a file counts itself).
func (in *Inode) SubtreeFiles() int {
	if in.dir != nil {
		return in.dir.subFiles
	}
	return 1
}

// SubtreeInodes returns the number of inodes at and below this inode.
func (in *Inode) SubtreeInodes() int {
	if in.dir != nil {
		return in.dir.subInodes
	}
	return 1
}

// NumChildren returns the number of direct children (0 for files).
func (in *Inode) NumChildren() int {
	if in.dir == nil {
		return 0
	}
	return len(in.dir.order)
}

// ChildAt returns the i-th direct child in insertion order — ascending
// inode-number order — for 0 <= i < NumChildren(). Walking children
// this way allocates nothing.
func (in *Inode) ChildAt(i int) *Inode { return in.dir.tree.at(in.dir.order[i]) }

// InFrag reports whether the inode's name hash falls in frag: whether
// it is one of its parent's children that frag covers.
func (in *Inode) InFrag(f Frag) bool { return f.IsWhole() || f.Contains(in.hash()) }

// hash returns HashName(in.Name), computing it on first need.
func (in *Inode) hash() uint32 {
	if !in.hashed {
		in.nameHash, in.hashed = HashName(in.Name), true
	}
	return in.nameHash
}

// Children returns a copy of the direct children in insertion order.
func (in *Inode) Children() []*Inode {
	out := make([]*Inode, in.NumChildren())
	for i := range out {
		out[i] = in.ChildAt(i)
	}
	return out
}

// Path returns the absolute path of the inode ("/" for the root).
func (in *Inode) Path() string {
	if in.Parent == nil {
		return "/"
	}
	var parts []string
	for n := in; n.Parent != nil; n = n.Parent {
		parts = append(parts, n.Name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// inodeSlabSize is how many inodes each slab holds. Slab allocation
// amortizes the per-create heap allocation the tick loop would
// otherwise pay for every new inode.
const inodeSlabSize = 1024

// Tree is the namespace: a rooted inode hierarchy stored in inode-number
// order. Tree is not safe for concurrent use, lookups included: Child
// and Lookup may build a directory's name index, and InFrag and
// resolution may write the hash cache. The simulator is
// single-threaded per cluster by design (determinism), and every
// experiment cell builds its own tree.
//
// Inode numbers are dense (assigned sequentially from RootIno and never
// reused), so inode n is slot n%inodeSlabSize of slab n/inodeSlabSize
// (slot 0 of the first slab is never used): finding an inode by number
// is arithmetic, a create never moves an earlier inode, and a
// directory's child list and name index hold numbers, not pointers the
// garbage collector traces.
type Tree struct {
	slabs   []*[inodeSlabSize]Inode
	nextIn  Ino
	numDirs uint32 // directories ever created; the next Inode.DirNum
}

// NewTree creates a namespace containing only the root directory.
func NewTree() *Tree {
	t := &Tree{nextIn: RootIno + 1, numDirs: 1}
	t.slabs = append(t.slabs, new([inodeSlabSize]Inode))
	*t.Root() = Inode{Ino: RootIno, IsDir: true, dir: &dirState{tree: t, subInodes: 1}}
	return t
}

// at returns inode n's slot; n must be below nextIn.
func (t *Tree) at(n uint32) *Inode { return &t.slabs[n/inodeSlabSize][n%inodeSlabSize] }

// next returns the slot of the next inode number, adding a slab when
// the last is full.
func (t *Tree) next() *Inode {
	if int(t.nextIn/inodeSlabSize) == len(t.slabs) {
		t.slabs = append(t.slabs, new([inodeSlabSize]Inode))
	}
	return t.at(uint32(t.nextIn))
}

// Root returns the root directory inode.
func (t *Tree) Root() *Inode { return &t.slabs[0][RootIno] }

// Get returns the inode with the given number, or nil.
func (t *Tree) Get(ino Ino) *Inode {
	if ino == 0 || ino >= t.nextIn {
		return nil
	}
	return t.at(uint32(ino))
}

// NumInodes returns the total number of inodes in the tree.
func (t *Tree) NumInodes() int { return t.Root().dir.subInodes }

// MaxIno returns the highest inode number ever allocated (inode numbers
// are dense and start at RootIno, so [RootIno, MaxIno] spans every
// inode that exists or existed). The state auditor uses it to sample
// inodes by stride without walking the tree.
func (t *Tree) MaxIno() Ino { return t.nextIn - 1 }

// checkChild reports why name cannot be created under parent, leaving
// aside whether it already exists: the check every create path shares.
func checkChild(parent *Inode, name string) error {
	if parent == nil || !parent.IsDir {
		return ErrNotDir
	}
	if name == "" || strings.ContainsRune(name, '/') {
		return ErrBadName
	}
	return nil
}

func (t *Tree) attach(parent *Inode, name string, isDir bool, size int64) (*Inode, error) {
	if err := checkChild(parent, name); err != nil {
		return nil, err
	}
	var dir *dirState
	if isDir {
		dir = &dirState{tree: t, subInodes: 1, num: t.numDirs}
	}
	linked, adopted := t.AdoptOrExisting(t.carve(parent, name, size, dir))
	if !adopted {
		return nil, ErrExists
	}
	if isDir {
		t.numDirs++
	}
	return linked, nil
}

// Mkdir creates a directory under parent.
func (t *Tree) Mkdir(parent *Inode, name string) (*Inode, error) {
	return t.attach(parent, name, true, 0)
}

// Create creates a file of the given size under parent.
func (t *Tree) Create(parent *Inode, name string, size int64) (*Inode, error) {
	return t.attach(parent, name, false, size)
}

// MkdirAll creates every directory along path (like mkdir -p) and
// returns the final one. Path components are separated by '/'.
func (t *Tree) MkdirAll(path string) (*Inode, error) {
	cur := t.Root()
	for _, part := range splitPath(path) {
		next := cur.Child(part)
		if next == nil {
			var err error
			next, err = t.Mkdir(cur, part)
			if err != nil {
				return nil, err
			}
		} else if !next.IsDir {
			return nil, ErrNotDir
		}
		cur = next
	}
	return cur, nil
}

// Lookup resolves an absolute path to an inode.
func (t *Tree) Lookup(path string) (*Inode, error) {
	cur := t.Root()
	for _, part := range splitPath(path) {
		if !cur.IsDir {
			return nil, ErrNotDir
		}
		next := cur.Child(part)
		if next == nil {
			return nil, ErrNotFound
		}
		cur = next
	}
	return cur, nil
}

// Walk visits every inode in depth-first, insertion order, starting at
// the root. If fn returns false the walk stops.
func (t *Tree) Walk(fn func(*Inode) bool) {
	var rec func(*Inode) bool
	rec = func(in *Inode) bool {
		if !fn(in) {
			return false
		}
		for i := 0; i < in.NumChildren(); i++ {
			if !rec(in.ChildAt(i)) {
				return false
			}
		}
		return true
	}
	rec(t.Root())
}

// splitPath returns the path's non-empty '/'-separated components.
func splitPath(path string) []string {
	return strings.FieldsFunc(path, func(r rune) bool { return r == '/' })
}

// Hot is the per-inode access history used by the paper's stats
// recording: a boolean queue of the last 32 epochs, as a 32-bit shift
// register. The pattern analyzer reads it to classify accesses as
// recurrent (temporal locality) or first-visit (spatial locality).
// Every Touch leaves bit 0 set and only Touch shifts, so Bits is zero
// until the first access and never again after it. An inode last
// touched before epoch e still answers RecentEpochs(e-1, n) exactly
// for n <= 31; the trace collector's history is bounded by that.
type Hot struct {
	// Bits holds one bit per recent epoch; bit d is epoch Epoch-d.
	Bits uint32
	// Epoch is the epoch Bits was last shifted to. The methods take
	// int64 epochs; a run's epochs fit in 32 bits.
	Epoch int32
}

// Touch records an access during the given epoch and reports whether
// the inode had ever been accessed before this call.
func (h *Hot) Touch(epoch int64) (seenBefore bool) {
	seenBefore = h.Bits != 0
	if shift := epoch - int64(h.Epoch); shift >= 32 {
		h.Bits, h.Epoch = 0, int32(epoch)
	} else if shift > 0 {
		h.Bits <<= uint(shift)
		h.Epoch = int32(epoch)
	}
	h.Bits |= 1
	return seenBefore
}

// AccessedIn reports whether the inode was accessed during the given
// epoch (within the 32-epoch window).
func (h *Hot) AccessedIn(epoch int64) bool {
	d := int64(h.Epoch) - epoch
	if d < 0 || d >= 32 {
		return false
	}
	return h.Bits&(1<<uint(d)) != 0
}

// RecentEpochs returns in how many of the last n epochs (ending at the
// given epoch) the inode was accessed.
func (h *Hot) RecentEpochs(epoch int64, n int) int {
	// The asked epochs are bits [lo, lo+n) clipped to the 32-bit window.
	lo := int64(h.Epoch) - epoch
	hi := lo + int64(n)
	if lo < 0 {
		lo = 0
	}
	if hi > 32 {
		hi = 32
	}
	if lo >= hi {
		return 0
	}
	return bits.OnesCount32(h.Bits >> uint(lo) << uint(32-(hi-lo)))
}

// EverAccessed reports whether the inode has ever been accessed.
func (h *Hot) EverAccessed() bool { return h.Bits != 0 }
