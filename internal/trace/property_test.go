package trace

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/namespace"
)

// TestCollectorConservationProperty: over any access sequence, each
// window's counters obey the structural identities —
// Distinct <= Visits, Recurrent <= Distinct, FirstVisits <= Visits —
// and the root-dir aggregate equals the sum over the epoch's records.
func TestCollectorConservationProperty(t *testing.T) {
	f := func(accesses []uint16, epochJumps []bool) bool {
		tree := namespace.NewTree()
		d, _ := tree.MkdirAll("/d")
		var files []*namespace.Inode
		for i := 0; i < 24; i++ {
			in, err := tree.Create(d, fmt.Sprintf("f%02d", i), 1)
			if err != nil {
				return false
			}
			files = append(files, in)
		}
		key := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}
		col := NewCollector(4)
		epoch := int64(0)
		perEpochVisits := map[int64]int{}
		for i, a := range accesses {
			if i < len(epochJumps) && epochJumps[i] {
				epoch++
			}
			col.Record(key, files[int(a)%len(files)], epoch)
			perEpochVisits[epoch]++
		}
		// Check the identities for each of the last few epochs.
		for e := epoch; e >= 0 && e > epoch-4; e-- {
			c := col.RecentKey(key, epoch, int(epoch-e)+1)
			_ = c
			w := col.RecentKey(key, e, 1)
			if w.Distinct > w.Visits || w.Recurrent > w.Distinct || w.FirstVisits > w.Visits {
				return false
			}
			if w.Visits != perEpochVisits[e] {
				return false
			}
			// Dir-level aggregation matches the key-level counters at
			// the root (everything propagates to the root dir here).
			dw := col.RecentDir(tree.Root(), e, 1)
			if dw != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestVisitedDescMatchesHotState: VisitedDesc at the root always equals
// the number of inodes with EverAccessed set.
func TestVisitedDescMatchesHotState(t *testing.T) {
	f := func(accesses []uint8) bool {
		tree := namespace.NewTree()
		d, _ := tree.MkdirAll("/d")
		var files []*namespace.Inode
		for i := 0; i < 16; i++ {
			in, err := tree.Create(d, fmt.Sprintf("f%02d", i), 1)
			if err != nil {
				return false
			}
			files = append(files, in)
		}
		key := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}
		col := NewCollector(3)
		for i, a := range accesses {
			col.Record(key, files[int(a)%len(files)], int64(i/8))
		}
		visited := 0
		tree.Walk(func(in *namespace.Inode) bool {
			if in.Hot.EverAccessed() {
				visited++
			}
			return true
		})
		return tree.Root().VisitedDesc() == visited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
