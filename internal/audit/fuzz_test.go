package audit

import (
	"fmt"
	"testing"

	"repro/internal/mds"
	"repro/internal/namespace"
)

// The fuzz targets drive randomized op sequences against the partition
// and the migration engine, with CheckPartition / CheckMigrator as the
// oracle after every step: any reachable state that breaks an invariant
// is a bug in the mutation path, not in the sequence. Inputs are pairs
// of bytes (op selector, argument); trailing odd bytes are ignored.

// fuzzTree builds the deterministic namespace every partition fuzzer
// starts from: /d0../d5, each with 6 files and 2 subdirs of 3 files.
func fuzzTree(t testing.TB) (*namespace.Tree, []*namespace.Inode) {
	t.Helper()
	tree := namespace.NewTree()
	var dirs []*namespace.Inode
	for d := 0; d < 6; d++ {
		dir, err := tree.MkdirAll(fmt.Sprintf("/d%d", d))
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
		for f := 0; f < 6; f++ {
			if _, err := tree.Create(dir, fmt.Sprintf("f%d", f), 1); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < 2; s++ {
			sub, err := tree.Mkdir(dir, fmt.Sprintf("s%d", s))
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, sub)
			for f := 0; f < 3; f++ {
				if _, err := tree.Create(sub, fmt.Sprintf("f%d", f), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tree, dirs
}

// pickEntry deterministically selects the arg-th non-root entry (nil
// when none exist). The root entry is excluded so the fuzzers never
// trivially bounce off the absorb-root refusal.
func pickEntry(part *namespace.Partition, arg byte) (namespace.Entry, bool) {
	root := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}
	var es []namespace.Entry
	for _, e := range part.Entries() {
		if e.Key != root {
			es = append(es, e)
		}
	}
	if len(es) == 0 {
		return namespace.Entry{}, false
	}
	return es[int(arg)%len(es)], true
}

func requireClean(t *testing.T, tree *namespace.Tree, part *namespace.Partition, step int, op byte) {
	t.Helper()
	if vs := CheckPartition(tree, part); len(vs) != 0 {
		t.Fatalf("step %d (op %d): partition invariant broken: %v", step, op, vs[0])
	}
}

// FuzzPartitionOps exercises the full partition mutation surface —
// carve, split, merge, absorb, authority moves, plus live creates —
// and requires structural and conservation invariants to hold after
// every op. Ops decode mod 7 and op 6 is a no-op, which keeps the seed
// inputs' op sequences.
func FuzzPartitionOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 4, 3, 2, 0})
	f.Add([]byte{0, 2, 1, 0, 1, 1, 3, 0, 5, 9, 6, 1})
	f.Add([]byte{5, 0, 5, 1, 0, 4, 1, 0, 2, 1, 6, 0, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, dirs := fuzzTree(t)
		part := namespace.NewPartition(tree, 0)
		nextName := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, data[i+1]
			switch op {
			case 0: // carve a directory (skip when fragments exist)
				dir := dirs[int(arg)%len(dirs)]
				if len(part.EntriesAt(dir.Ino)) == 0 {
					part.Carve(dir)
				}
			case 1: // split an entry
				if e, ok := pickEntry(part, arg); ok && e.Key.Frag.Bits < 20 {
					part.SplitEntry(e.Key)
				}
			case 2: // absorb an entry into its enclosing subtree
				if e, ok := pickEntry(part, arg); ok {
					part.Absorb(e.Key)
				}
			case 3: // merge an entry with its sibling fragment
				if e, ok := pickEntry(part, arg); ok {
					part.MergeWithSibling(e.Key)
				}
			case 4: // move authority
				if e, ok := pickEntry(part, arg); ok {
					part.SetAuth(e.Key, namespace.MDSID(arg%4))
				}
			case 5: // create a file
				dir := dirs[int(arg)%len(dirs)]
				tree.Create(dir, fmt.Sprintf("fz%d", nextName), 1)
				nextName++
			}
			requireClean(t, tree, part, i/2, op)
		}
	})
}

// FuzzFragSplitMerge stresses the dirfrag split/merge lattice of a
// single wide directory: fragments must stay pairwise disjoint and the
// governed-inode counts must keep summing to the tree total through
// arbitrary split/merge/absorb interleavings.
func FuzzFragSplitMerge(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 1, 2, 1, 0, 2, 5, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := namespace.NewTree()
		wide, err := tree.MkdirAll("/wide")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, err := tree.Create(wide, fmt.Sprintf("f%02d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		part := namespace.NewPartition(tree, 0)
		part.Carve(wide)
		pick := func(arg byte) (namespace.Entry, bool) {
			es := part.EntriesAt(wide.Ino)
			if len(es) == 0 {
				return namespace.Entry{}, false
			}
			return es[int(arg)%len(es)], true
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch op {
			case 0:
				if e, ok := pick(arg); ok && e.Key.Frag.Bits < 24 {
					part.SplitEntry(e.Key)
				}
			case 1:
				if e, ok := pick(arg); ok {
					part.MergeWithSibling(e.Key)
				}
			case 2:
				if e, ok := pick(arg); ok {
					part.Absorb(e.Key)
				}
			case 3:
				if e, ok := pick(arg); ok {
					part.SetAuth(e.Key, namespace.MDSID(arg%3))
				}
			}
			requireClean(t, tree, part, i/2, op)
		}
	})
}

// FuzzMigratorLifecycle drives the migration engine through randomized
// submit/tick/abort/authority-churn sequences over a live partition.
// After every op the freeze-window invariant and the lifecycle counter
// reconciliation (submitted = queued + active + completed + dropped +
// aborted) must hold — the same checks the cluster auditor runs per
// epoch.
func FuzzMigratorLifecycle(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{6, 0, 6, 1, 0, 1, 0, 2, 1, 0, 4, 1, 1, 0, 1, 0})
	f.Add([]byte{6, 2, 0, 2, 1, 0, 2, 0, 1, 0, 1, 0, 3, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ranks = 3
		tree, dirs := fuzzTree(t)
		part := namespace.NewPartition(tree, 0)
		valid := [ranks]bool{true, true, true}
		m := mds.NewMigrator(part, func(r namespace.MDSID) bool {
			return int(r) >= 0 && int(r) < ranks && valid[r]
		}, func(namespace.MDSID) bool { return true })
		tick := int64(0)
		check := func(step int, op byte) {
			t.Helper()
			if vs := CheckMigrator(m, tick); len(vs) != 0 {
				t.Fatalf("step %d (op %d): freeze invariant broken: %v", step, op, vs[0])
			}
			sum := int64(m.QueuedTasks()) + int64(m.ActiveTasks()) +
				m.CompletedTasks() + m.DroppedTasks() + m.AbortedTasks()
			if m.SubmittedTasks() != sum {
				t.Fatalf("step %d (op %d): submitted %d != lifecycle sum %d",
					step, op, m.SubmittedTasks(), sum)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, data[i+1]
			switch op {
			case 0: // submit an export of an existing entry
				if e, ok := pickEntry(part, arg); ok {
					m.Submit(e.Key, e.Auth, namespace.MDSID(arg%ranks), 1, tick)
				}
			case 1: // advance time
				tick++
				m.Tick(tick)
			case 2: // absorb an entry (may vanish under an active task)
				if e, ok := pickEntry(part, arg); ok {
					part.Absorb(e.Key)
				}
			case 3: // authority churn (staleness at activation)
				if e, ok := pickEntry(part, arg); ok {
					part.SetAuth(e.Key, namespace.MDSID(arg%ranks))
				}
			case 4: // rank failure: abort its tasks, mark it invalid
				r := namespace.MDSID(arg % ranks)
				valid[r] = false
				m.AbortRank(r)
			case 5: // rank recovery
				valid[arg%ranks] = true
			case 6: // carve a new movable subtree
				dir := dirs[int(arg)%len(dirs)]
				if len(part.EntriesAt(dir.Ino)) == 0 {
					part.Carve(dir)
				}
			}
			check(i/2, op)
		}
	})
}
