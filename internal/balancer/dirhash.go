package balancer

import (
	"repro/internal/namespace"
)

// DirHash simulates the hash-based metadata distribution of §4.6: the
// namespace is split into fine-grained subtrees (directories at a fixed
// depth) that are statically pinned to MDS ranks by name hash, and no
// dynamic migration ever happens. Inodes spread evenly, but requests do
// not — and path traversal crosses many authority boundaries, inflating
// forwards (Figure 14).
type DirHash struct{}

// dirHashMaxDepth bounds how deep the pinner descends; a directory is
// pinned when it has no sub-directories (a leaf, the finest grain) or
// when it sits at dirHashMaxDepth.
const dirHashMaxDepth = 4

// NewDirHash returns the static pinning policy.
func NewDirHash() *DirHash { return &DirHash{} }

// Name implements Balancer.
func (b *DirHash) Name() string { return "Dir-Hash" }

// Rebalance implements Balancer: on every epoch it (re)pins any
// directories at the pin depth that are not yet subtree roots — new
// directories appear when workloads create them — and performs no load
// balancing whatsoever.
func (b *DirHash) Rebalance(v View) {
	part := v.Partition()
	tree := part.Tree()
	live := ImportableRanks(v)
	if len(live) == 0 {
		return
	}
	pin := func(ch *namespace.Inode) {
		if len(part.EntriesAt(ch.Ino)) == 0 {
			e := part.Carve(ch)
			// Hash across the importable ranks only; with no failures
			// or drains this is identical to hashing across all ranks.
			target := live[int(namespace.HashName(ch.Path()))%len(live)]
			part.SetAuth(e.Key, target)
		}
	}
	var walk func(dir *namespace.Inode, depth int)
	walk = func(dir *namespace.Inode, depth int) {
		for _, ch := range dir.Children() {
			if !ch.IsDir {
				continue
			}
			hasSubdirs := false
			for _, g := range ch.Children() {
				if g.IsDir {
					hasSubdirs = true
					break
				}
			}
			if !hasSubdirs || depth+1 >= dirHashMaxDepth {
				pin(ch)
				continue
			}
			walk(ch, depth+1)
		}
	}
	walk(tree.Root(), 0)
}
