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
	ErrIsDir    = errors.New("namespace: is a directory")
	ErrBadName  = errors.New("namespace: invalid name")
	ErrIsRoot   = errors.New("namespace: operation not valid on root")
	ErrNotEmpty = errors.New("namespace: directory not empty")
)

// Inode is a node in the namespace tree: either a directory (with
// children) or a file. The Hot field carries the per-inode access
// history the paper's stats-recording keeps (a boolean queue of the
// last n epochs); it belongs to the inode in the real implementation
// too, so it lives here rather than in a side table.
//
// Everything only a directory needs sits behind dir, so the inode a
// file pays for is 80 bytes: dir != nil ⇔ IsDir. A file is its own
// subtree — one inode, one file — and keeps a single visited bit. The
// fields a served op reads (access history, parent, size, name hash)
// come first: 48 contiguous bytes, which the slab's 80-byte stride
// keeps inside one cache line for every other inode.
type Inode struct {
	// Hot is the runtime access-history annotation.
	Hot    Hot
	Parent *Inode
	Size   int64 // file size in bytes; 0 for directories

	// nameHash caches HashName(Name): fragment membership and the
	// parent's name index both key on it.
	nameHash uint32
	IsDir    bool
	visited  bool // a file's whole visited count: MarkVisited has run

	dir *dirState // children and subtree counters; nil on files

	Ino  Ino
	Name string
}

// dirState is the directory-only part of an inode.
type dirState struct {
	index dirIndex // finds a child by name; empty until the first child
	order []*Inode // insertion-ordered children for deterministic walks

	// subInodes is the number of inodes in the subtree rooted here,
	// including the directory itself. Maintained incrementally on create
	// and remove so subtree sizing during migration planning is O(1).
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
func (in *Inode) NumChildren() int { return len(in.Children()) }

// Child returns the named child, or nil.
func (in *Inode) Child(name string) *Inode {
	return in.ChildHashed(name, HashName(name))
}

// Children returns the direct children in insertion order (nil for
// files). The returned slice is shared; callers must not modify it.
func (in *Inode) Children() []*Inode {
	if in.dir == nil {
		return nil
	}
	return in.dir.order
}

// ChildrenInFrag returns the direct children whose name hash falls in
// frag, in insertion order.
func (in *Inode) ChildrenInFrag(f Frag) []*Inode {
	if f.IsWhole() {
		return in.Children()
	}
	var out []*Inode
	for _, c := range in.Children() {
		if f.Contains(c.nameHash) {
			out = append(out, c)
		}
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

// Depth returns the number of edges from the root (0 for the root).
func (in *Inode) Depth() int {
	d := 0
	for n := in; n.Parent != nil; n = n.Parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether in is a strict ancestor of other.
func (in *Inode) IsAncestorOf(other *Inode) bool {
	for n := other.Parent; n != nil; n = n.Parent {
		if n == in {
			return true
		}
	}
	return false
}

// inodeSlabSize is how many inodes each slab chunk holds. Slab
// allocation amortizes the per-create heap allocation the tick loop
// would otherwise pay for every new inode.
const inodeSlabSize = 1024

// inoBlock is how many inode numbers one registry block covers: 128 KB
// of slots, so even the create benchmark's 7 k creates a tick open less
// than one block a tick.
const inoBlock = 16384

// Tree is the namespace: a rooted inode hierarchy with an inode-number
// registry. Tree is not safe for concurrent mutation; the simulator is
// single-threaded per cluster by design (determinism).
//
// Inode numbers are dense (assigned sequentially from RootIno and never
// reused), so the registry is a list of fixed-size blocks indexed by
// Ino — a create never copies what earlier creates registered — and
// inodes are handed out from slab chunks rather than allocated
// individually. A removed inode's slab slot is not recycled —
// acceptable for a simulator where removes are rare and runs are
// bounded.
type Tree struct {
	root    *Inode
	byIno   []*[inoBlock]*Inode // byIno[ino/inoBlock][ino%inoBlock]; nil for removed inodes
	nextIn  Ino
	numDirs uint32  // directories ever created; the next Inode.DirNum
	slab    []Inode // current slab chunk; alloc() carves from the front
}

// NewTree creates a namespace containing only the root directory.
func NewTree() *Tree {
	t := &Tree{nextIn: RootIno + 1, numDirs: 1}
	root := t.alloc()
	*root = Inode{
		Ino:      RootIno,
		Name:     "",
		IsDir:    true,
		dir:      &dirState{subInodes: 1},
		nameHash: HashName(""),
	}
	t.root = root
	t.register(root)
	return t
}

// alloc returns a zeroed inode from the slab.
func (t *Tree) alloc() *Inode {
	if len(t.slab) == 0 {
		t.slab = make([]Inode, inodeSlabSize)
	}
	in := &t.slab[0]
	t.slab = t.slab[1:]
	return in
}

// Root returns the root directory inode.
func (t *Tree) Root() *Inode { return t.root }

// Get returns the inode with the given number, or nil.
func (t *Tree) Get(ino Ino) *Inode {
	if ino/inoBlock >= Ino(len(t.byIno)) {
		return nil
	}
	return t.byIno[ino/inoBlock][ino%inoBlock]
}

// register files a numbered inode in the registry, opening a block
// when its number is the first past the last one.
func (t *Tree) register(in *Inode) {
	if in.Ino/inoBlock == Ino(len(t.byIno)) {
		t.byIno = append(t.byIno, new([inoBlock]*Inode))
	}
	t.byIno[in.Ino/inoBlock][in.Ino%inoBlock] = in
}

// NumInodes returns the total number of inodes in the tree.
func (t *Tree) NumInodes() int { return t.root.dir.subInodes }

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
	hash := HashName(name)
	if parent.ChildHashed(name, hash) != nil {
		return nil, ErrExists
	}
	in := t.alloc()
	*in = Inode{
		Name:     name,
		Parent:   parent,
		IsDir:    isDir,
		Size:     size,
		nameHash: hash,
	}
	if isDir {
		in.dir = &dirState{subInodes: 1, num: t.numDirs}
		t.numDirs++
	}
	t.AdoptOrExisting(in)
	return in, nil
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
	cur := t.root
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
	cur := t.root
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

// Remove detaches a file or an empty directory from the tree.
func (t *Tree) Remove(in *Inode) error {
	if in.Parent == nil {
		return ErrIsRoot
	}
	if in.NumChildren() > 0 {
		return ErrNotEmpty
	}
	p := in.Parent.dir
	for i, c := range p.order {
		if c == in {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.reindex() // every later sibling's position moved
	t.byIno[in.Ino/inoBlock][in.Ino%inoBlock] = nil
	files, vDesc, vFiles := in.SubtreeFiles(), in.VisitedDesc(), in.VisitedFiles()
	for a := in.Parent; a != nil; a = a.Parent {
		a.dir.subInodes--
		a.dir.subFiles -= files
		a.dir.visitedDesc -= vDesc
		a.dir.visitedFiles -= vFiles
	}
	in.Parent = nil
	return nil
}

// Walk visits every inode in depth-first, insertion order, starting at
// the root. If fn returns false the walk stops.
func (t *Tree) Walk(fn func(*Inode) bool) {
	var rec func(*Inode) bool
	rec = func(in *Inode) bool {
		if !fn(in) {
			return false
		}
		for _, c := range in.Children() {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(t.root)
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// Hot is the per-inode access history used by the paper's stats
// recording: a boolean queue of the last n epochs (implemented as a
// 64-bit shift register) plus a total access counter. The pattern
// analyzer reads it to classify accesses as recurrent (temporal
// locality) or first-visit (spatial locality).
type Hot struct {
	// Bits holds one bit per recent epoch; bit 0 is the current epoch.
	Bits uint64
	// Epoch is the epoch Bits was last shifted to.
	Epoch int64
	// Count is the total number of accesses ever.
	Count uint32
}

// Touch records an access during the given epoch and reports whether
// the inode had ever been accessed before this call.
func (h *Hot) Touch(epoch int64) (seenBefore bool) {
	seenBefore = h.Count > 0
	h.advance(epoch)
	h.Bits |= 1
	h.Count++
	return seenBefore
}

func (h *Hot) advance(epoch int64) {
	if epoch <= h.Epoch {
		return
	}
	shift := epoch - h.Epoch
	if shift >= 64 {
		h.Bits = 0
	} else {
		h.Bits <<= uint(shift)
	}
	h.Epoch = epoch
}

// AccessedIn reports whether the inode was accessed during the given
// epoch (within the 64-epoch window).
func (h *Hot) AccessedIn(epoch int64) bool {
	d := h.Epoch - epoch
	if d < 0 || d >= 64 {
		return false
	}
	return h.Bits&(1<<uint(d)) != 0
}

// RecentEpochs returns in how many of the last n epochs (ending at the
// given epoch) the inode was accessed.
func (h *Hot) RecentEpochs(epoch int64, n int) int {
	// Bit d of Bits is epoch h.Epoch-d; the asked epochs are bits
	// [lo, lo+n) clipped to the 64-bit window.
	lo, hi := h.Epoch-epoch, h.Epoch-epoch+int64(n)
	if lo < 0 {
		lo = 0
	}
	if hi > 64 {
		hi = 64
	}
	if lo >= hi {
		return 0
	}
	return bits.OnesCount64(h.Bits >> uint(lo) << uint(64-(hi-lo)))
}

// EverAccessed reports whether the inode has ever been accessed.
func (h *Hot) EverAccessed() bool { return h.Count > 0 }
