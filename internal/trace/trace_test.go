package trace

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
)

func fixture(t testing.TB) (*namespace.Tree, *namespace.Inode, []*namespace.Inode) {
	t.Helper()
	tr := namespace.NewTree()
	d, err := tr.Mkdir(tr.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*namespace.Inode, 10)
	for i := range files {
		f, err := tr.Create(d, fmt.Sprintf("f%02d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return tr, d, files
}

func rootKey() namespace.FragKey {
	return namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}
}

func TestRecordFirstVisits(t *testing.T) {
	_, _, files := fixture(t)
	c := NewCollector(4)
	c.BeginEpoch(0)
	key := rootKey()
	for _, f := range files {
		c.Record(key, f, 0)
	}
	got := c.RecentKey(key, 0, 1)
	if got.Visits != 10 || got.Distinct != 10 || got.FirstVisits != 10 {
		t.Fatalf("scan window: %+v", got)
	}
	if got.Recurrent != 0 {
		t.Fatal("scan must have no recurrent visits")
	}
}

func TestRecordRecurrent(t *testing.T) {
	_, _, files := fixture(t)
	c := NewCollector(4)
	key := rootKey()
	c.BeginEpoch(0)
	c.Record(key, files[0], 0)
	c.BeginEpoch(1)
	c.Record(key, files[0], 1)
	c.Record(key, files[0], 1) // repeated within the window: 1 distinct
	got := c.RecentKey(key, 1, 1)
	if got.Visits != 2 || got.Distinct != 1 || got.Recurrent != 1 {
		t.Fatalf("recurrent window: %+v", got)
	}
	if got.FirstVisits != 0 {
		t.Fatal("already-seen inode must not count as first visit")
	}
}

func TestRecurrentOnlyWithinHistory(t *testing.T) {
	_, _, files := fixture(t)
	c := NewCollector(2)
	key := rootKey()
	c.BeginEpoch(0)
	c.Record(key, files[0], 0)
	// Epoch 5 is more than 2 windows later: the old visit is outside
	// the history, so the access is not recurrent (but not a first
	// visit either, since the inode has been seen before).
	for e := int64(1); e <= 5; e++ {
		c.BeginEpoch(e)
	}
	c.Record(key, files[0], 5)
	got := c.RecentKey(key, 5, 1)
	if got.Recurrent != 0 {
		t.Fatalf("stale visit counted as recurrent: %+v", got)
	}
	if got.FirstVisits != 0 {
		t.Fatalf("seen inode counted as first visit: %+v", got)
	}
}

func TestRecentSumsWindows(t *testing.T) {
	_, _, files := fixture(t)
	c := NewCollector(4)
	key := rootKey()
	for e := int64(0); e < 3; e++ {
		c.BeginEpoch(e)
		c.Record(key, files[int(e)], e)
	}
	if got := c.RecentKey(key, 2, 3); got.Visits != 3 {
		t.Fatalf("3-window sum: %+v", got)
	}
	if got := c.RecentKey(key, 2, 1); got.Visits != 1 {
		t.Fatalf("1-window sum: %+v", got)
	}
	// n beyond history clamps.
	if got := c.RecentKey(key, 2, 100); got.Visits != 3 {
		t.Fatalf("clamped sum: %+v", got)
	}
}

func TestRingRecycling(t *testing.T) {
	_, _, files := fixture(t)
	c := NewCollector(2) // ring of 3
	key := rootKey()
	for e := int64(0); e < 10; e++ {
		c.BeginEpoch(e)
		c.Record(key, files[0], e)
	}
	// Only the last 2 windows are in scope.
	if got := c.RecentKey(key, 9, 2); got.Visits != 2 {
		t.Fatalf("after recycling: %+v", got)
	}
}

func TestDirPropagation(t *testing.T) {
	tr := namespace.NewTree()
	a, _ := tr.Mkdir(tr.Root(), "a")
	b, _ := tr.Mkdir(a, "b")
	f, _ := tr.Create(b, "f", 1)
	c := NewCollector(4)
	key := rootKey()
	c.BeginEpoch(0)
	c.Record(key, f, 0)
	// Both /a/b and /a and / accumulate the access (governing root is /).
	if got := c.RecentDir(b, 0, 1); got.Visits != 1 {
		t.Fatalf("dir b: %+v", got)
	}
	if got := c.RecentDir(a, 0, 1); got.Visits != 1 {
		t.Fatalf("dir a: %+v", got)
	}
	if got := c.RecentDir(tr.Root(), 0, 1); got.Visits != 1 {
		t.Fatalf("root dir: %+v", got)
	}
}

func TestDirPropagationStopsAtSubtreeRoot(t *testing.T) {
	tr := namespace.NewTree()
	a, _ := tr.Mkdir(tr.Root(), "a")
	b, _ := tr.Mkdir(a, "b")
	f, _ := tr.Create(b, "f", 1)
	c := NewCollector(4)
	// Governing entry is rooted at /a: propagation must not reach /.
	key := namespace.FragKey{Dir: a.Ino, Frag: namespace.WholeFrag}
	c.BeginEpoch(0)
	c.Record(key, f, 0)
	if got := c.RecentDir(a, 0, 1); got.Visits != 1 {
		t.Fatalf("subtree root: %+v", got)
	}
	if got := c.RecentDir(tr.Root(), 0, 1); !got.IsZero() {
		t.Fatalf("propagation crossed subtree root: %+v", got)
	}
}

func TestForget(t *testing.T) {
	tr := namespace.NewTree()
	a, _ := tr.Mkdir(tr.Root(), "a")
	fa, _ := tr.Create(a, "f", 1)
	ka := namespace.FragKey{Dir: a.Ino, Frag: namespace.WholeFrag}
	c := NewCollector(3)
	c.BeginEpoch(0)
	c.Record(ka, fa, 0)
	c.Forget(ka)
	if got := c.RecentKey(ka, 0, 3); !got.IsZero() {
		t.Fatalf("forgotten key still has stats: %+v", got)
	}
}

func TestRecordAutoOpensEpoch(t *testing.T) {
	_, _, files := fixture(t)
	c := NewCollector(3)
	c.Record(rootKey(), files[0], 7)
	if c.Epoch() != 7 {
		t.Fatalf("epoch = %d", c.Epoch())
	}
	if got := c.RecentKey(rootKey(), 7, 1); got.Visits != 1 {
		t.Fatalf("auto-open: %+v", got)
	}
}

func TestZipfLikeVsScanSignature(t *testing.T) {
	// Sanity check of the classification signal the pattern analyzer
	// depends on: a rescan-heavy stream yields high recurrent counts,
	// a pure scan yields pure first visits.
	tr := namespace.NewTree()
	d, _ := tr.Mkdir(tr.Root(), "d")
	var files []*namespace.Inode
	for i := 0; i < 50; i++ {
		f, _ := tr.Create(d, fmt.Sprintf("f%03d", i), 1)
		files = append(files, f)
	}
	key := rootKey()

	hot := NewCollector(4)
	for e := int64(0); e < 4; e++ {
		hot.BeginEpoch(e)
		for i := 0; i < 10; i++ { // same hot set every window
			hot.Record(key, files[i], e)
		}
	}
	got := hot.RecentKey(key, 3, 1)
	if got.Recurrent != 10 || got.FirstVisits != 0 {
		t.Fatalf("hot-set signature: %+v", got)
	}

	scan := NewCollector(4)
	idx := 0
	for e := int64(0); e < 4; e++ {
		scan.BeginEpoch(e)
		for i := 0; i < 10; i++ {
			scan.Record(key, files[idx], e)
			idx++
		}
	}
	got = scan.RecentKey(key, 3, 1)
	if got.Recurrent != 0 || got.FirstVisits != 10 {
		t.Fatalf("scan signature: %+v", got)
	}
}
