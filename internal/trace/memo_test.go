package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/namespace"
)

// TestMemoInvalidation: the last-key memo holds a pointer to a record,
// and window slots outlive their window, so Forget must drop the memo
// and a recycled window must read empty — otherwise the next record
// lands where no reader can reach, or stale counters come back.
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

// fresh is RecordFreshRun in the model: n first, distinct visits
// charged along the per-op walk from parent.
func (m *mapModel) fresh(key namespace.FragKey, parent *namespace.Inode, epoch, n int64) {
	delta := Counters{Visits: int(n), Distinct: int(n), FirstVisits: int(n)}
	if m.byKey[epoch] == nil {
		m.byKey[epoch] = map[namespace.FragKey]Counters{}
		m.byDir[epoch] = map[namespace.Ino]Counters{}
	}
	k := m.byKey[epoch][key]
	k.Add(delta)
	m.byKey[epoch][key] = k
	for d := parent; d != nil; d = d.Parent {
		c := m.byDir[epoch][d.Ino]
		c.Add(delta)
		m.byDir[epoch][d.Ino] = c
		if d.Ino == key.Dir {
			break
		}
	}
}

// TestWindowsMatchPerOpWalk: the table charges directories through its
// chain memo and keeps a key's window counters in slots tagged by
// window generation; the map model walks the ancestors on every op and
// keeps plain per-epoch maps. Over a deep random tree with carved and
// split entries, random records (runs under one parent and switches),
// served ops, fresh and write-back runs, forgets, epoch jumps, and the
// heat side of the table — seeds, tenant bumps and heat-epoch closes
// across at least three purges, which may reset heat but must not
// touch live windows — RecentKey and RecentDir must read the model's
// counters at every epoch still in the ring, and zero at every epoch
// recycled out of it.
func TestWindowsMatchPerOpWalk(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := namespace.NewTree()
		dirs := []*namespace.Inode{tr.Root()}
		for i := 0; i < 40; i++ {
			d, _ := tr.Mkdir(dirs[len(dirs)-1-rng.Intn(min(len(dirs), 3))], fmt.Sprintf("d%d", i))
			dirs = append(dirs, d)
		}
		all := append([]*namespace.Inode(nil), dirs...)
		for i := 0; i < 200; i++ {
			f, _ := tr.Create(dirs[rng.Intn(len(dirs))], fmt.Sprintf("f%d", i), 1)
			all = append(all, f)
		}
		p := namespace.NewPartition(tr, 0)
		for i := 0; i < 30; i++ {
			d := dirs[1+rng.Intn(len(dirs)-1)]
			if es := p.EntriesAt(d.Ino); len(es) == 0 {
				p.Carve(d)
			} else {
				p.SplitEntry(es[rng.Intn(len(es))].Key)
			}
		}
		const history = 3
		col := New(history, 0.5)
		col.EnableTenants(3)
		m := &mapModel{
			history: history,
			byKey:   map[int64]map[namespace.FragKey]Counters{},
			byDir:   map[int64]map[namespace.Ino]Counters{},
			seen:    map[*namespace.Inode]map[int64]bool{},
		}
		// held[i] is the epoch whose window ring slot i holds (-1: none).
		held := make([]int64, history+1)
		for i := range held {
			held[i] = -1
		}
		open := func(e int64) { held[e%int64(len(held))] = e }
		check := func(step int, epoch int64) {
			t.Helper()
			for e := max(0, epoch-2*int64(len(held))); e <= epoch; e++ {
				inRing := held[e%int64(len(held))] == e
				for _, en := range p.Entries() {
					var want Counters
					if inRing {
						want = m.byKey[e][en.Key]
					}
					if got := col.RecentKey(en.Key, e, 1); got != want {
						t.Fatalf("seed %d step %d epoch %d key %v: %+v, model %+v", seed, step, e, en.Key, got, want)
					}
				}
				for _, d := range dirs {
					var want Counters
					if inRing {
						want = m.byDir[e][d.Ino]
					}
					if got := col.RecentDir(d, e, 1); got != want {
						t.Fatalf("seed %d step %d epoch %d dir %s: %+v, model %+v", seed, step, e, d.Path(), got, want)
					}
				}
			}
		}
		epoch := int64(0)
		in := all[0]
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(40); {
			case r == 0:
				epoch += 1 + int64(rng.Intn(history+2))
			case r == 1:
				k := p.GoverningEntry(all[rng.Intn(len(all))]).Key
				col.Forget(k)
				m.forget(k)
			case r == 2:
				d := dirs[rng.Intn(len(dirs))]
				k, n := p.GoverningChildEntry(d, fmt.Sprint(rng.Uint32())).Key, 1+rng.Int63n(5)
				if rng.Intn(2) == 0 {
					col.RecordFreshRun(k, d, epoch, n)
				} else {
					col.ChargeRun(k, d, epoch, int(n)+rng.Intn(3), rng.Intn(2), n)
				}
				m.fresh(k, d, epoch, n)
				open(epoch)
			case r == 3:
				for i := 1 + rng.Intn(8); i > 0; i-- {
					col.EndEpoch()
				}
			case r == 4:
				k := p.GoverningEntry(all[rng.Intn(len(all))]).Key
				if rng.Intn(2) == 0 {
					col.SeedHeat(k, rng.Float64()*4, rng.Float64())
				} else {
					col.AddTenantHeat(k, rng.Intn(3), 1+rng.Intn(3))
				}
			default:
				if rng.Intn(3) == 0 {
					in = all[rng.Intn(len(all))]
				} else if in.Parent != nil {
					// A sibling: the same parent, so the chain memo hits.
					in = in.Parent.ChildAt(rng.Intn(in.Parent.NumChildren()))
				}
				k := p.GoverningEntry(in).Key
				if rng.Intn(2) == 0 {
					col.RecordNoVisit(k, in, epoch)
				} else {
					col.Charge(k, in, epoch, rng.Intn(4) == 0)
				}
				m.record(k, in, epoch)
				open(epoch)
			}
			if step%250 == 0 {
				check(step, epoch)
			}
		}
		check(5000, epoch)
		if col.heatEpoch < 3*heatPurgeEvery {
			t.Fatalf("seed %d: only %d heat epochs closed; the purge ran fewer than three times", seed, col.heatEpoch)
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
	// The directory-chain memo: same-parent records a run of files three
	// directories below their entry root (the memo hits); alternating
	// switches between two such parents every op (it misses and walks).
	c, _ := tr.MkdirAll("/deep/b/c")
	d, _ := tr.MkdirAll("/deep/b/d")
	var same, alt []*namespace.Inode
	for f := 0; f < 64; f++ {
		fc, _ := tr.Create(c, fmt.Sprintf("f%d", f), 1)
		fd, _ := tr.Create(d, fmt.Sprintf("f%d", f), 1)
		same, alt = append(same, fc), append(alt, fc, fd)
	}
	deep := func(b *testing.B, files []*namespace.Inode) {
		c := NewCollector(5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.RecordNoVisit(rootKey(), files[i%len(files)], int64(i>>16))
		}
	}
	b.Run("same-parent", func(b *testing.B) { deep(b, same) })
	b.Run("alternating", func(b *testing.B) { deep(b, alt) })
}
