package namespace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func fileName(prefix string, i int) string { return fmt.Sprintf("%s%05d", prefix, i) }

// childrenInFrag lists d's children that f covers, in insertion order.
func childrenInFrag(d *Inode, f Frag) []*Inode {
	var out []*Inode
	for i := 0; i < d.NumChildren(); i++ {
		if c := d.ChildAt(i); c.InFrag(f) {
			out = append(out, c)
		}
	}
	return out
}

// checkNumberOrder checks the tree's storage invariants: Get(n) is
// inode n for every n in [RootIno, MaxIno] and nil outside it, Walk
// visits each of them once, and every directory's children ascend by
// inode number.
func checkNumberOrder(tr *Tree) error {
	for n := RootIno; n <= tr.MaxIno(); n++ {
		if in := tr.Get(n); in == nil || in.Ino != n {
			return fmt.Errorf("Get(%d) = %v", n, in)
		}
	}
	if tr.Get(0) != nil || tr.Get(tr.MaxIno()+1) != nil {
		return fmt.Errorf("Get outside [RootIno, %d] is not nil", tr.MaxIno())
	}
	seen := map[Ino]bool{}
	var err error
	tr.Walk(func(in *Inode) bool {
		if seen[in.Ino] {
			err = fmt.Errorf("Walk visits %d twice", in.Ino)
		}
		seen[in.Ino] = true
		for i := 1; i < in.NumChildren() && err == nil; i++ {
			if in.ChildAt(i-1).Ino >= in.ChildAt(i).Ino {
				err = fmt.Errorf("%s: child %d does not ascend by number", in.Path(), i)
			}
		}
		return err == nil
	})
	if err == nil && (len(seen) != tr.NumInodes() || Ino(len(seen)) != tr.MaxIno()) {
		err = fmt.Errorf("Walk visits %d inodes of %d (MaxIno %d)", len(seen), tr.NumInodes(), tr.MaxIno())
	}
	return err
}

func buildSmallTree(t testing.TB) *Tree {
	t.Helper()
	tr := NewTree()
	must := func(in *Inode, err error) *Inode {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a := must(tr.Mkdir(tr.Root(), "a"))
	b := must(tr.Mkdir(tr.Root(), "b"))
	must(tr.Create(a, "f1", 100))
	must(tr.Create(a, "f2", 200))
	sub := must(tr.Mkdir(b, "sub"))
	must(tr.Create(sub, "f3", 300))
	return tr
}

func TestTreeBasics(t *testing.T) {
	tr := buildSmallTree(t)
	if tr.NumInodes() != 7 {
		t.Fatalf("NumInodes = %d, want 7", tr.NumInodes())
	}
	f3, err := tr.Lookup("/b/sub/f3")
	if err != nil {
		t.Fatal(err)
	}
	if f3.Size != 300 || f3.IsDir {
		t.Fatal("f3 attributes")
	}
	if f3.Path() != "/b/sub/f3" {
		t.Fatalf("Path = %q", f3.Path())
	}
	if tr.Root().Path() != "/" {
		t.Fatal("root path")
	}
	if tr.Get(f3.Ino) != f3 {
		t.Fatal("Get by ino")
	}
}

func TestLookupErrors(t *testing.T) {
	tr := buildSmallTree(t)
	if _, err := tr.Lookup("/nope"); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := tr.Lookup("/a/f1/x"); err != ErrNotDir {
		t.Fatalf("want ErrNotDir, got %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	tr := buildSmallTree(t)
	a, _ := tr.Lookup("/a")
	if _, err := tr.Create(a, "f1", 1); err != ErrExists {
		t.Fatalf("want ErrExists, got %v", err)
	}
	if _, err := tr.Create(a, "x/y", 1); err != ErrBadName {
		t.Fatalf("want ErrBadName, got %v", err)
	}
	if _, err := tr.Create(a, "", 1); err != ErrBadName {
		t.Fatalf("want ErrBadName, got %v", err)
	}
	f1, _ := tr.Lookup("/a/f1")
	if _, err := tr.Create(f1, "child", 1); err != ErrNotDir {
		t.Fatalf("want ErrNotDir, got %v", err)
	}
}

func TestMkdirAll(t *testing.T) {
	tr := NewTree()
	d, err := tr.MkdirAll("/x/y/z")
	if err != nil {
		t.Fatal(err)
	}
	if d.Path() != "/x/y/z" {
		t.Fatalf("Path = %q", d.Path())
	}
	// Idempotent.
	d2, err := tr.MkdirAll("/x/y/z")
	if err != nil || d2 != d {
		t.Fatal("MkdirAll not idempotent")
	}
	// Fails across a file.
	x, _ := tr.Lookup("/x")
	if _, err := tr.Create(x, "file", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll("/x/file/deep"); err != ErrNotDir {
		t.Fatalf("want ErrNotDir, got %v", err)
	}
}

func TestSubtreeCountsInvariant(t *testing.T) {
	tr := buildSmallTree(t)
	// Each inode's subInodes equals 1 + sum of children's.
	ok := true
	tr.Walk(func(in *Inode) bool {
		sum := 1
		for _, c := range in.Children() {
			sum += c.SubtreeInodes()
		}
		if in.SubtreeInodes() != sum {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("subtree count invariant violated")
	}
}

// recount is the walking reference for the four incrementally
// maintained per-inode counters: it derives them from the children and
// from which inodes MarkVisited has run on.
type recount struct{ inodes, files, vDesc, vFiles int }

func recountSubtree(in *Inode, visited map[*Inode]bool) recount {
	r := recount{inodes: 1}
	if !in.IsDir {
		r.files = 1
	}
	if visited[in] {
		r.vDesc, r.vFiles = 1, r.files
	}
	for _, c := range in.Children() {
		cr := recountSubtree(c, visited)
		r.inodes += cr.inodes
		r.files += cr.files
		r.vDesc += cr.vDesc
		r.vFiles += cr.vFiles
	}
	return r
}

// TestSubtreeCountsProperty: through random mkdir / create / adopt /
// duplicate-adopt / unadopted-carve / taken-name create / MarkVisited
// sequences, every inode — files and directories both — reports the
// subtree and visited counts a recount by walking gives, dir != nil ⇔
// IsDir holds, a carve never adopted leaves NumInodes and MaxIno as
// they were, a Create or Mkdir of a taken name fails with ErrExists and
// leaves them and the next carve's slot as they were, the tree
// keeps its number order (checkNumberOrder), and UnvisitedIn on the
// halves of a split directory matches the recount of the children in
// each half.
func TestSubtreeCountsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := NewTree()
		var arena InodeArena
		dirs := []*Inode{tr.Root()}
		var all []*Inode // every linked inode but the root
		visited := map[*Inode]bool{}
		live := 1
		for i, op := range ops {
			parent := dirs[int(op)%len(dirs)]
			switch op % 9 {
			case 0:
				d, err := tr.Mkdir(parent, fileName("d", i))
				if err != nil {
					return false
				}
				dirs, all = append(dirs, d), append(all, d)
				live++
			case 1, 2:
				in, err := tr.Create(parent, fileName("f", i), int64(op))
				if err != nil {
					return false
				}
				all = append(all, in)
				live++
			case 3:
				in, err := arena.NewFile(parent, fileName("a", i), 1)
				if err != nil || in.SubtreeInodes() != 1 || in.SubtreeFiles() != 1 {
					return false
				}
				seen := op%2 == 0
				if seen { // visited before it is adopted
					in.MarkVisited()
				}
				in, _ = tr.AdoptOrExisting(in)
				visited[in] = seen
				all = append(all, in)
				live++
			case 4, 5:
				if len(all) == 0 {
					continue
				}
				if in := all[int(op/9)%len(all)]; !visited[in] {
					in.MarkVisited()
					visited[in] = true
				}
			case 6:
				if _, err := arena.NewFile(parent, fileName("u", i), 1); err != nil ||
					tr.NumInodes() != live || tr.MaxIno() != Ino(live) {
					return false
				}
			case 7:
				if len(all) == 0 {
					continue
				}
				ex := all[int(op/9)%len(all)]
				in, _ := arena.NewFile(ex.Parent, ex.Name, 1)
				if got, adopted := tr.AdoptOrExisting(in); adopted || got != ex || tr.NumInodes() != live {
					return false
				}
			case 8:
				if len(all) == 0 {
					continue
				}
				ex := all[int(op/9)%len(all)]
				next, _ := arena.NewFile(ex.Parent, fileName("n", i), 1)
				var err error
				if op/9%2 == 0 {
					_, err = tr.Create(ex.Parent, ex.Name, 1)
				} else {
					_, err = tr.Mkdir(ex.Parent, ex.Name)
				}
				again, _ := arena.NewFile(ex.Parent, fileName("n", i), 1)
				if err != ErrExists || again != next || again.Ino != 0 ||
					tr.NumInodes() != live || tr.MaxIno() != Ino(live) {
					return false
				}
			}
		}
		if tr.NumInodes() != live || checkNumberOrder(tr) != nil {
			return false
		}
		good := true
		tr.Walk(func(in *Inode) bool {
			want := recountSubtree(in, visited)
			got := recount{in.SubtreeInodes(), in.SubtreeFiles(), in.VisitedDesc(), in.VisitedFiles()}
			good = got == want && (in.dir != nil) == in.IsDir
			return good
		})
		if !good {
			return false
		}
		p := NewPartition(tr, 0)
		for _, d := range dirs {
			if d == tr.Root() || d.NumChildren() < 2 {
				continue
			}
			l, r, ok := p.SplitEntry(p.Carve(d).Key)
			if !ok {
				continue
			}
			for _, e := range []Entry{l, r} {
				var want recount
				for _, c := range childrenInFrag(d, e.Key.Frag) {
					cr := recountSubtree(c, visited)
					want.files += cr.files
					want.vFiles += cr.vFiles
				}
				if u, total := p.UnvisitedIn(e.Key); u != want.files-want.vFiles || total != want.files {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestInodeSize pins the per-file footprint: everything directory-only
// lives behind Inode.dir.
func TestInodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(Inode{}); sz > 64 {
		t.Fatalf("Inode is %d bytes, want <= 64: one cache line", sz)
	}
}

// TestRecentEpochsMatchesLoop checks the shift-mask-popcount against the
// per-epoch loop it replaced, for epochs inside and beyond the 32-bit
// window and n from 0 past the window width.
func TestRecentEpochsMatchesLoop(t *testing.T) {
	loop := func(h *Hot, epoch int64, n int) int {
		cnt := 0
		for i := int64(0); i < int64(n); i++ {
			if h.AccessedIn(epoch - i) {
				cnt++
			}
		}
		return cnt
	}
	f := func(bits uint32, at uint8, back int8) bool {
		h := Hot{Bits: bits, Epoch: int32(at)}
		e := int64(h.Epoch)
		for _, epoch := range []int64{e - int64(back), e, e + 1, e - 31, e - 32, e + 40} {
			for n := 0; n <= 40; n++ {
				if h.RecentEpochs(epoch, n) != loop(&h, epoch, n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// wideHot is the 64-epoch history Hot replaced: a 64-bit shift register
// and an access counter.
type wideHot struct {
	bits  uint64
	epoch int64
	count int
}

func (w *wideHot) touch(epoch int64) {
	if shift := epoch - w.epoch; shift >= 64 {
		w.bits, w.epoch = 0, epoch
	} else if shift > 0 {
		w.bits, w.epoch = w.bits<<uint(shift), epoch
	}
	w.bits |= 1
	w.count++
}

func (w *wideHot) accessedIn(epoch int64) bool {
	d := w.epoch - epoch
	return d >= 0 && d < 64 && w.bits&(1<<uint(d)) != 0
}

// TestHotMatchesWideReference: through random Touch sequences whose
// gaps cross the window, Hot answers as the 64-bit history does for
// every query the trace collector makes — EverAccessed, Touch's
// seenBefore, AccessedIn back to 31 epochs, and RecentEpochs of up to
// 31 epochs ending at or just before the next epoch touched.
func TestHotMatchesWideReference(t *testing.T) {
	f := func(gaps []uint8) bool {
		var h Hot
		var w wideHot
		epoch := int64(0)
		for _, g := range gaps {
			epoch += int64(g % 40)
			if g >= 240 {
				epoch += 100
			}
			if h.EverAccessed() != (w.count > 0) {
				return false
			}
			for e := epoch - 31; e <= epoch+1; e++ {
				if h.AccessedIn(e) != w.accessedIn(e) {
					return false
				}
			}
			for n := 0; n <= 31; n++ {
				for _, end := range []int64{epoch - 1, epoch} {
					want := 0
					for e := end; e > end-int64(n); e-- {
						if w.accessedIn(e) {
							want++
						}
					}
					if h.RecentEpochs(end, n) != want {
						return false
					}
				}
			}
			if h.Touch(epoch) != (w.count > 0) {
				return false
			}
			w.touch(epoch)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkOrderDeterministic(t *testing.T) {
	tr := buildSmallTree(t)
	var paths []string
	tr.Walk(func(in *Inode) bool {
		paths = append(paths, in.Path())
		return true
	})
	want := []string{"/", "/a", "/a/f1", "/a/f2", "/b", "/b/sub", "/b/sub/f3"}
	if len(paths) != len(want) {
		t.Fatalf("walk visited %d nodes, want %d", len(paths), len(want))
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("walk order[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := buildSmallTree(t)
	n := 0
	tr.Walk(func(in *Inode) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("walk visited %d after stop, want 3", n)
	}
}

func TestChildrenInFrag(t *testing.T) {
	tr := NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	for i := 0; i < 200; i++ {
		if _, err := tr.Create(d, fileName("f", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	l, r := WholeFrag.Split()
	nl := len(childrenInFrag(d, l))
	nr := len(childrenInFrag(d, r))
	if nl+nr != 200 {
		t.Fatalf("frag children %d + %d != 200", nl, nr)
	}
	if nl == 0 || nr == 0 {
		t.Fatal("one half empty; hash split badly unbalanced")
	}
	if len(childrenInFrag(d, WholeFrag)) != 200 {
		t.Fatal("whole frag must cover all children")
	}
}

func TestHotTouchAndWindow(t *testing.T) {
	var h Hot
	if h.EverAccessed() {
		t.Fatal("fresh inode should be unvisited")
	}
	seen := h.Touch(5)
	if seen {
		t.Fatal("first touch must report unseen")
	}
	if !h.Touch(5) {
		t.Fatal("second touch must report seen")
	}
	if !h.AccessedIn(5) {
		t.Fatal("AccessedIn(5)")
	}
	h.Touch(7)
	if !h.AccessedIn(7) || !h.AccessedIn(5) || h.AccessedIn(6) {
		t.Fatal("epoch bit bookkeeping wrong")
	}
	if h.RecentEpochs(7, 3) != 2 {
		t.Fatalf("RecentEpochs = %d, want 2", h.RecentEpochs(7, 3))
	}
}

func TestHotWindowExpiry(t *testing.T) {
	var h Hot
	h.Touch(0)
	h.Touch(40) // shift >= 32 clears old bits
	if h.AccessedIn(0) || h.RecentEpochs(40, 64) != 1 {
		t.Fatal("epoch 0 should have fallen out of the 32-epoch window")
	}
	if !h.AccessedIn(40) {
		t.Fatal("epoch 40 should be set")
	}
	if !h.EverAccessed() {
		t.Fatal("EverAccessed survives window expiry")
	}
}

func TestHotFutureEpochQuery(t *testing.T) {
	var h Hot
	h.Touch(5)
	if h.AccessedIn(9) {
		t.Fatal("future epoch cannot have been accessed")
	}
}

// TestAdoptDuplicate pins the one linking body: the first carved inode
// of a (parent, name) slot links a numbered copy and counts, a second
// is discarded in favour of the linked inode.
func TestAdoptDuplicate(t *testing.T) {
	tr := buildSmallTree(t)
	a, _ := tr.Lookup("/a")
	var arena InodeArena
	carve := func() *Inode {
		in, err := arena.NewFile(a, "new", 10)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	first, ok := tr.AdoptOrExisting(carve())
	if !ok || first.Ino == 0 || first.Name != "new" || first.Size != 10 || first.Parent != a {
		t.Fatalf("first carve not adopted: got=%+v ok=%v", first, ok)
	}
	if a.Child("new") != first || tr.NumInodes() != 8 || tr.Get(first.Ino) != first {
		t.Fatalf("AdoptOrExisting did not link: ino=%d inodes=%d", first.Ino, tr.NumInodes())
	}
	if got, ok := tr.AdoptOrExisting(carve()); ok || got != first || tr.NumInodes() != 8 {
		t.Fatalf("duplicate adopted: got=%p first=%p ok=%v inodes=%d", got, first, ok, tr.NumInodes())
	}
}

// walkChain is DirChain.Nums without the memo: the per-op ancestor walk
// it replaced.
func walkChain(parent *Inode, root Ino) []uint32 {
	var nums []uint32
	for d := parent; d != nil; d = d.Parent {
		nums = append(nums, d.DirNum())
		if d.Ino == root {
			break
		}
	}
	return nums
}

// TestDirChainMatchesWalk drives one DirChain through random (parent,
// root) sequences over a deep random tree with carved and split
// entries: the governing entry of a random inode (the serve path's
// pair), a directory that need not be an ancestor (the walk then runs
// to the tree root), the tree root's own nil parent, and runs of
// repeats so the memo both hits and misses. Every answer must equal a
// fresh walk, deepest-first with the largest number first.
func TestDirChainMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		dirs := []*Inode{tr.Root()}
		for i := 0; i < 60; i++ {
			// Mostly under one of the last few directories: deep chains.
			parent := dirs[len(dirs)-1-rng.Intn(min(len(dirs), 3))]
			if rng.Intn(4) == 0 {
				parent = dirs[rng.Intn(len(dirs))]
			}
			d, err := tr.Mkdir(parent, fileName("d", i))
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, d)
		}
		all := append([]*Inode(nil), dirs...)
		for i := 0; i < 300; i++ {
			f, _ := tr.Create(dirs[rng.Intn(len(dirs))], fileName("f", i), 1)
			all = append(all, f)
		}
		ops := make([]uint8, 80)
		rng.Read(ops)
		p := applyRandomPartition(tr, ops, 4)

		var c DirChain
		var parent *Inode
		var root Ino
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(8); {
			case r < 3:
				// Repeat the last pair.
			case r < 6:
				in := all[rng.Intn(len(all))]
				parent, root = in.Parent, p.GoverningEntry(in).Key.Dir
			case r == 6:
				parent, root = dirs[rng.Intn(len(dirs))], dirs[rng.Intn(len(dirs))].Ino
			default:
				parent, root = tr.Root().Parent, RootIno
			}
			got, want := c.Nums(parent, root), walkChain(parent, root)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Nums(%v, %d) = %v, walk %v", seed, step, parent, root, got, want)
			}
			if len(got) > 0 && slices.Max(got) != got[0] {
				t.Fatalf("seed %d step %d: %v does not start with its largest number", seed, step, got)
			}
		}
		if got := c.Nums(nil, RootIno); len(got) != 0 {
			t.Fatalf("seed %d: the tree root's chain is %v, want empty", seed, got)
		}
	}
}
