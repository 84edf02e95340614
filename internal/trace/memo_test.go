package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/namespace"
)

// TestMemoInvalidation: the last-key memo holds a pointer into byKey, so
// every path that deletes or recycles a cell must drop it — otherwise
// the next record lands in a cell no reader can reach. Each case fails
// when its invalidation line (Forget's or BeginEpoch's) is removed.
func TestMemoInvalidation(t *testing.T) {
	const history = 3
	tr, d, files := fixture(t)
	key := rootKey()
	cases := []struct {
		name string
		// run records once under key at epoch 0, disturbs the collector,
		// records once more, and returns the epoch to read back.
		run func(c *Collector) int64
	}{
		{"forget", func(c *Collector) int64 {
			c.Record(key, files[0], 0)
			c.Forget(key)
			c.Record(key, files[1], 0)
			return 0
		}},
		{"recycle", func(c *Collector) int64 {
			// history+1 epochs later the ring hands epoch 0's window out
			// again; nothing else was recorded in between, so the memo
			// still names key.
			c.Record(key, files[0], 0)
			c.Record(key, files[1], history+1)
			return history + 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(history)
			e := tc.run(c)
			if got := c.RecentKey(key, e, 1); got.Visits != 1 {
				t.Fatalf("key counters after %s: %+v, want only the second record", tc.name, got)
			}
			for _, dir := range []*namespace.Inode{d, tr.Root()} {
				want := 1
				if tc.name == "forget" {
					want = 2 // Forget drops the subtree entry, not its directories
				}
				if got := c.RecentDir(dir, e, 1); got.Visits != want {
					t.Fatalf("dir %s counters after %s: %+v, want %d visits", dir.Path(), tc.name, got, want)
				}
			}
		})
	}
}

// mapModel is the collector as two plain maps per epoch and an explicit
// set of the epochs each inode was accessed in — no ring, no memo, no
// dense table, no bit tricks.
type mapModel struct {
	history int
	byKey   map[int64]map[namespace.FragKey]Counters
	byDir   map[int64]map[namespace.Ino]Counters
	seen    map[*namespace.Inode]map[int64]bool
}

func (m *mapModel) record(key namespace.FragKey, in *namespace.Inode, epoch int64) {
	delta := Counters{Visits: 1}
	if !m.seen[in][epoch] {
		delta.Distinct = 1
		for e := epoch - 1; e >= epoch-int64(m.history); e-- {
			if m.seen[in][e] {
				delta.Recurrent = 1
			}
		}
	}
	if len(m.seen[in]) == 0 {
		delta.FirstVisits = 1
		m.seen[in] = map[int64]bool{}
	}
	m.seen[in][epoch] = true
	if m.byKey[epoch] == nil {
		m.byKey[epoch] = map[namespace.FragKey]Counters{}
		m.byDir[epoch] = map[namespace.Ino]Counters{}
	}
	k := m.byKey[epoch][key]
	k.Add(delta)
	m.byKey[epoch][key] = k
	for d := in.Parent; d != nil; d = d.Parent {
		c := m.byDir[epoch][d.Ino]
		c.Add(delta)
		m.byDir[epoch][d.Ino] = c
		if d.Ino == key.Dir {
			break
		}
	}
}

func (m *mapModel) forget(key namespace.FragKey) {
	for _, w := range m.byKey {
		delete(w, key)
	}
}

func (m *mapModel) recent(epoch int64, n int, at func(e int64) Counters) Counters {
	if n > m.history {
		n = m.history
	}
	var total Counters
	for e := epoch; e > epoch-int64(n) && e >= 0; e-- {
		total.Add(at(e))
	}
	return total
}

// TestCollectorMatchesMapModel drives the collector and the map model
// through the same random record / forget / epoch-advance sequence over
// a small tree with two carved subtree entries and compares every
// RecentKey and RecentDir reading after every step.
func TestCollectorMatchesMapModel(t *testing.T) {
	tr := namespace.NewTree()
	mk := func(parent *namespace.Inode, name string) *namespace.Inode {
		d, err := tr.Mkdir(parent, name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(tr.Root(), "a"), mk(tr.Root(), "b")
	sub := mk(a, "sub")
	dirs := []*namespace.Inode{tr.Root(), a, b, sub}
	whole := func(d *namespace.Inode) namespace.FragKey {
		return namespace.FragKey{Dir: d.Ino, Frag: namespace.WholeFrag}
	}
	keys := []namespace.FragKey{whole(tr.Root()), whole(a), whole(b)}
	type target struct {
		in  *namespace.Inode
		key namespace.FragKey
	}
	var targets []target
	for i, d := range dirs {
		key := keys[0]
		if d == a || d == sub {
			key = keys[1]
		} else if d == b {
			key = keys[2]
		}
		for f := 0; f < 4; f++ {
			in, err := tr.Create(d, fmt.Sprintf("f%d-%d", i, f), 1)
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, target{in, key})
		}
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, tg := range targets {
			tg.in.Hot = namespace.Hot{}
		}
		const history = 3
		col := NewCollector(history)
		m := &mapModel{
			history: history,
			byKey:   map[int64]map[namespace.FragKey]Counters{},
			byDir:   map[int64]map[namespace.Ino]Counters{},
			seen:    map[*namespace.Inode]map[int64]bool{},
		}
		epoch := int64(0)
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				epoch += 1 + int64(rng.Intn(history+2)) // sometimes skips whole windows
			case r == 1:
				k := keys[rng.Intn(len(keys))]
				col.Forget(k)
				m.forget(k)
			default:
				// Short runs on one target's key, so the memo both hits
				// and misses.
				tg := targets[rng.Intn(len(targets))]
				col.RecordNoVisit(tg.key, tg.in, epoch)
				m.record(tg.key, tg.in, epoch)
			}
			for n := 1; n <= history+1; n++ {
				for _, k := range keys {
					want := m.recent(epoch, n, func(e int64) Counters { return m.byKey[e][k] })
					if got := col.RecentKey(k, epoch, n); got != want {
						t.Fatalf("seed %d step %d: RecentKey(%v, %d, %d) = %+v, model %+v", seed, step, k, epoch, n, got, want)
					}
				}
				for _, d := range dirs {
					want := m.recent(epoch, n, func(e int64) Counters { return m.byDir[e][d.Ino] })
					if got := col.RecentDir(d, epoch, n); got != want {
						t.Fatalf("seed %d step %d: RecentDir(%s, %d, %d) = %+v, model %+v", seed, step, d.Path(), epoch, n, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkRecordNoVisit prices one recorded access. one-dir is the case
// the last-key memo is built for: every op under one directory and one
// subtree entry. random-dirs is the case it does not help: 1024
// directories, each its own subtree entry (a Dir-Hash-like partition),
// picked at random, so every op misses the memo and probes the map.
func BenchmarkRecordNoVisit(b *testing.B) {
	const nDirs, perDir = 1024, 8
	tr := namespace.NewTree()
	var files []*namespace.Inode
	var keys []namespace.FragKey
	for d := 0; d < nDirs; d++ {
		dir, _ := tr.Mkdir(tr.Root(), fmt.Sprintf("d%04d", d))
		for f := 0; f < perDir; f++ {
			in, _ := tr.Create(dir, fmt.Sprintf("f%d", f), 1)
			files = append(files, in)
			keys = append(keys, namespace.FragKey{Dir: dir.Ino, Frag: namespace.WholeFrag})
		}
	}
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(len(files))
	run := func(b *testing.B, span int) {
		c := NewCollector(5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := order[i%len(order)] % span
			c.RecordNoVisit(keys[j], files[j], int64(i>>16))
		}
	}
	b.Run("one-dir", func(b *testing.B) { run(b, perDir) })
	b.Run("random-dirs", func(b *testing.B) { run(b, len(files)) })
}
