// Package namespace implements the file-system namespace substrate the
// balancers operate on: a hierarchical inode tree, CephFS-style
// directory fragments (dirfrags), and the subtree partition map that
// assigns authority over namespace regions to metadata servers.
//
// The representation deliberately mirrors the structures the paper's
// subtree-selection logic manipulates inside the Ceph MDS: subtrees are
// collections of nested directories and files rooted at a dirfrag, and
// dirfrags are hash partitions of a single directory's children.
package namespace

import "fmt"

// Frag identifies a fragment of a directory's children, in the style of
// CephFS frag_t: the fragment covers every child whose 32-bit name hash
// has Value as its top Bits bits. The zero value (Bits == 0) covers the
// whole directory.
type Frag struct {
	Value uint32
	Bits  uint8
}

// WholeFrag covers an entire directory.
var WholeFrag = Frag{}

// HashName returns the 32-bit hash used to map child names into
// fragments. It is the single hash used everywhere (fragment membership,
// Dir-Hash pinning) so that fragment arithmetic stays consistent. The
// raw FNV-1a value is passed through a murmur-style finalizer because
// fragment membership is decided by the HIGH bits, and plain FNV's high
// bits barely change across sequential names like file00001/file00002 —
// exactly the names workloads generate.
func HashName(name string) uint32 {
	// FNV-1a, inlined: hash/fnv costs a hasher and a []byte copy of the
	// name per call, and this runs once per create and per Child.
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return fmix32(h)
}

// fmix32 is the murmur3 32-bit finalizer: a bijective mixer with full
// avalanche, so nearby inputs spread across the whole 32-bit space.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Contains reports whether the fragment covers hash h.
func (f Frag) Contains(h uint32) bool {
	if f.Bits == 0 {
		return true
	}
	return h>>(32-uint32(f.Bits)) == f.Value
}

// IsWhole reports whether the fragment covers the entire directory.
func (f Frag) IsWhole() bool { return f.Bits == 0 }

// Split returns the two halves of the fragment. It panics if the
// fragment is already at maximum depth.
func (f Frag) Split() (Frag, Frag) {
	if f.Bits >= 32 {
		panic("namespace: cannot split a 32-bit fragment")
	}
	left := Frag{Value: f.Value << 1, Bits: f.Bits + 1}
	right := Frag{Value: f.Value<<1 | 1, Bits: f.Bits + 1}
	return left, right
}

// Parent returns the fragment that f was split from. It panics for the
// whole fragment, which has no parent.
func (f Frag) Parent() Frag {
	if f.Bits == 0 {
		panic("namespace: whole fragment has no parent")
	}
	return Frag{Value: f.Value >> 1, Bits: f.Bits - 1}
}

// Sibling returns the other half of f's parent. It panics for the whole
// fragment.
func (f Frag) Sibling() Frag {
	if f.Bits == 0 {
		panic("namespace: whole fragment has no sibling")
	}
	return Frag{Value: f.Value ^ 1, Bits: f.Bits}
}

// String renders the fragment like CephFS ("*" for whole, value/bits
// otherwise).
func (f Frag) String() string {
	if f.Bits == 0 {
		return "*"
	}
	return fmt.Sprintf("%0*b/%d", f.Bits, f.Value, f.Bits)
}
