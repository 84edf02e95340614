package namespace

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

func fileName(prefix string, i int) string { return fmt.Sprintf("%s%05d", prefix, i) }

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
	if f3.Depth() != 3 {
		t.Fatalf("Depth = %d", f3.Depth())
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
// remove / MarkVisited sequences, every inode — files and directories
// both — reports the subtree and visited counts a recount by walking
// gives, dir != nil ⇔ IsDir holds, and UnvisitedIn on the halves of a
// split directory matches the recount of the children in each half.
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
			switch op % 7 {
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
				if op%2 == 0 { // visited before it is adopted
					in.MarkVisited()
					visited[in] = true
				}
				tr.Adopt(in)
				all = append(all, in)
				live++
			case 4, 5:
				if len(all) == 0 {
					continue
				}
				if in := all[int(op/7)%len(all)]; !visited[in] && in.Parent != nil {
					in.MarkVisited()
					visited[in] = true
				}
			case 6:
				if len(all) == 0 {
					continue
				}
				in := all[int(op/7)%len(all)]
				if in.Parent == nil || in.NumChildren() > 0 {
					continue // already removed, or not empty
				}
				if tr.Remove(in) != nil {
					return false
				}
				live--
				for j, d := range dirs {
					if d == in {
						dirs = append(dirs[:j], dirs[j+1:]...)
						break
					}
				}
			}
		}
		if tr.NumInodes() != live {
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
				for _, c := range d.ChildrenInFrag(e.Key.Frag) {
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
	if sz := unsafe.Sizeof(Inode{}); sz > 80 {
		t.Fatalf("Inode is %d bytes, want <= 80", sz)
	}
}

// TestRecentEpochsMatchesLoop checks the shift-mask-popcount against the
// per-epoch loop it replaced, for epochs inside and beyond the 64-bit
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
	f := func(bits uint64, at uint8, back int8) bool {
		h := Hot{Bits: bits, Epoch: int64(at), Count: 1}
		for _, epoch := range []int64{h.Epoch - int64(back), h.Epoch, h.Epoch + 1, h.Epoch - 63, h.Epoch - 64, h.Epoch + 70} {
			for n := 0; n <= 70; n++ {
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

func TestRemove(t *testing.T) {
	tr := buildSmallTree(t)
	f1, _ := tr.Lookup("/a/f1")
	before := tr.NumInodes()
	if err := tr.Remove(f1); err != nil {
		t.Fatal(err)
	}
	if tr.NumInodes() != before-1 {
		t.Fatal("count after remove")
	}
	if _, err := tr.Lookup("/a/f1"); err != ErrNotFound {
		t.Fatal("removed file still found")
	}
	b, _ := tr.Lookup("/b")
	if err := tr.Remove(b); err != ErrNotEmpty {
		t.Fatalf("want ErrNotEmpty, got %v", err)
	}
	if err := tr.Remove(tr.Root()); err != ErrIsRoot {
		t.Fatalf("want ErrIsRoot, got %v", err)
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
	nl := len(d.ChildrenInFrag(l))
	nr := len(d.ChildrenInFrag(r))
	if nl+nr != 200 {
		t.Fatalf("frag children %d + %d != 200", nl, nr)
	}
	if nl == 0 || nr == 0 {
		t.Fatal("one half empty; hash split badly unbalanced")
	}
	if len(d.ChildrenInFrag(WholeFrag)) != 200 {
		t.Fatal("whole frag must cover all children")
	}
}

func TestIsAncestorOf(t *testing.T) {
	tr := buildSmallTree(t)
	b, _ := tr.Lookup("/b")
	f3, _ := tr.Lookup("/b/sub/f3")
	if !b.IsAncestorOf(f3) {
		t.Fatal("b should be ancestor of f3")
	}
	if f3.IsAncestorOf(b) {
		t.Fatal("f3 is not ancestor of b")
	}
	if b.IsAncestorOf(b) {
		t.Fatal("strict ancestry should exclude self")
	}
	if !tr.Root().IsAncestorOf(f3) {
		t.Fatal("root is ancestor of everything")
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
	if h.Count != 3 {
		t.Fatalf("Count = %d", h.Count)
	}
}

func TestHotWindowExpiry(t *testing.T) {
	var h Hot
	h.Touch(0)
	h.Touch(100) // shift > 64 clears old bits
	if h.AccessedIn(0) {
		t.Fatal("epoch 0 should have fallen out of the 64-epoch window")
	}
	if !h.AccessedIn(100) {
		t.Fatal("epoch 100 should be set")
	}
	if !h.EverAccessed() {
		t.Fatal("count survives window expiry")
	}
}

func TestHotFutureEpochQuery(t *testing.T) {
	var h Hot
	h.Touch(5)
	if h.AccessedIn(9) {
		t.Fatal("future epoch cannot have been accessed")
	}
}

// TestAdoptDuplicate pins the one linking body behind both adoption
// entry points: the first carved inode of a (parent, name) slot links and
// counts, a second is discarded in favour of the linked inode by
// AdoptOrExisting and is a panic for Adopt.
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
	first := carve()
	tr.Adopt(first)
	if first.Ino == 0 || a.Child("new") != first || tr.NumInodes() != 8 || tr.Get(first.Ino) != first {
		t.Fatalf("Adopt did not link: ino=%d inodes=%d", first.Ino, tr.NumInodes())
	}
	if got, ok := tr.AdoptOrExisting(carve()); ok || got != first || tr.NumInodes() != 8 {
		t.Fatalf("duplicate adopted: got=%p first=%p ok=%v inodes=%d", got, first, ok, tr.NumInodes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Adopt of a duplicate must panic")
		}
	}()
	tr.Adopt(carve())
}
