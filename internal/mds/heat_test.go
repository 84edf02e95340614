package mds

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/namespace"
)

// eagerHeat is the reference implementation the lazy table replaced:
// every epoch close multiplies every counter by the decay factor and
// deletes entries that fall below the floor.
type eagerHeat struct {
	decay float64
	vals  map[int]float64
}

func (e *eagerHeat) bump(id int) { e.vals[id]++ }
func (e *eagerHeat) read(id int) float64 {
	v := e.vals[id]
	if v < heatFloor {
		return 0
	}
	return v
}
func (e *eagerHeat) endEpoch() {
	for id, v := range e.vals {
		v *= e.decay
		if v < heatFloor {
			delete(e.vals, id)
			continue
		}
		e.vals[id] = v
	}
}

// TestLazyHeatMatchesEagerSweep drives the lazy table and the eager
// reference through an identical deterministic schedule of bumps and
// epoch closes — including gaps long enough for values to expire and
// for the periodic purge to run — and asserts every read agrees within
// floating-point reassociation error (lazy computes val×decay^k with a
// precomputed power; eager multiplies k times in sequence).
func TestLazyHeatMatchesEagerSweep(t *testing.T) {
	const decay = 0.5
	lazy := newHeatTable(decay)
	eager := &eagerHeat{decay: decay, vals: map[int]float64{}}
	cells := map[int]*heatCell{}
	cell := func(id int) *heatCell {
		c := cells[id]
		if c == nil {
			c = &heatCell{epoch: lazy.epoch}
			cells[id] = c
		}
		return c
	}

	check := func(step int, ids ...int) {
		t.Helper()
		for _, id := range ids {
			got := lazy.value(cell(id))
			want := eager.read(id)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("step %d, cell %d: lazy %v != eager %v (epoch %d)",
					step, id, got, want, lazy.epoch)
			}
		}
	}

	// A deterministic schedule: each step bumps a subset of cells some
	// number of times, then closes the epoch. Cell 0 is hot throughout,
	// cell 1 goes cold and must expire, cell 2 reappears after a gap,
	// cells 3+ churn. 200 epochs crosses the purge period (64) 3 times.
	for step := 0; step < 200; step++ {
		bumps := []struct{ id, n int }{{0, 5}}
		if step < 10 {
			bumps = append(bumps, struct{ id, n int }{1, 3})
		}
		if step%40 == 0 {
			bumps = append(bumps, struct{ id, n int }{2, 7})
		}
		bumps = append(bumps, struct{ id, n int }{3 + step%4, 1})
		for _, b := range bumps {
			for i := 0; i < b.n; i++ {
				lazy.bumpN(cell(b.id), 1, 0)
				eager.bump(b.id)
			}
		}
		check(step, 0, 1, 2, 3, 4, 5, 6)
		lazy.endEpoch()
		eager.endEpoch()
		check(step, 0, 1, 2, 3, 4, 5, 6)
	}

	// Cell 1 stopped being bumped at step 10 with heat ~6; at decay 0.5
	// it is far below the floor by now and must read as zero.
	if v := lazy.value(cell(1)); v != 0 {
		t.Fatalf("expired cell reads %v, want 0", v)
	}
}

// TestHeatPurgeRemovesExpiredCells asserts the periodic purge actually
// frees table entries (the lazy design's answer to unbounded growth)
// without touching live ones.
func TestHeatPurgeRemovesExpiredCells(t *testing.T) {
	lazy := newHeatTable(0.5)
	key := func(i int) namespace.FragKey { return namespace.FragKey{Dir: namespace.Ino(i)} }
	hot := lazy.keyCell(key(0))
	for i := 0; i < 1000; i++ {
		lazy.bumpN(lazy.keyCell(key(i)), 1, 0)
	}
	if got := len(lazy.byKey); got != 1000 {
		t.Fatalf("table has %d cells, want 1000", got)
	}
	for e := 0; e < heatPurgeEvery; e++ {
		lazy.bumpN(hot, 1, 0) // keep one cell alive across every epoch
		lazy.endEpoch()
	}
	if got := len(lazy.byKey); got != 1 {
		t.Fatalf("after purge: %d cells, want only the hot one", got)
	}
	if lazy.value(hot) == 0 {
		t.Fatal("hot cell must survive the purge")
	}
}

// TestHeatMemoInvalidation: the last-key memo holds a pointer into
// byKey, so whatever deletes a key cell must drop it — otherwise the
// next charge lands in a cell no reader can reach (or, on Rejoin, in a
// table that should be gone). Each case heats one key, disturbs the
// server, heats the key once more, and must read exactly that one
// access; each fails when its invalidation is removed.
func TestHeatMemoInvalidation(t *testing.T) {
	cases := []struct {
		name    string
		disturb func(s *Server, key namespace.FragKey)
	}{
		{"purge", func(s *Server, key namespace.FragKey) {
			// At decay 0.5 one access is under heatFloor after 7 epochs;
			// the sweep at the heatPurgeEvery boundary deletes the cell.
			for i := 0; i < heatPurgeEvery; i++ {
				s.EndEpoch(10)
			}
			if len(s.heat.byKey) != 0 {
				t.Fatal("fixture: the purge must delete the expired cell")
			}
		}},
		{"drop", func(s *Server, key namespace.FragKey) { s.DropSubtreeStats(key) }},
		{"rejoin", func(s *Server, key namespace.FragKey) { s.Crash(); s.Rejoin() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, p, files := fixture(t)
			s := NewServer(0, 1000, 4, 0.5)
			e := p.GoverningEntry(files[0])
			s.BeginTick()
			s.Serve(e, files[0], 0)
			tc.disturb(s, e.Key)
			s.BeginTick()
			s.Serve(e, files[1], 0)
			if got := s.HeatOfKey(e.Key); got != 1 {
				t.Fatalf("heat after %s = %v, want 1 (the one access since)", tc.name, got)
			}
			if ops, _ := s.KeyStats(e.Key); ops != 1 {
				t.Fatalf("raw ops after %s = %d, want 1", tc.name, ops)
			}
		})
	}
}

// TestMinHeatSeesEveryCell: the auditor's negative-heat check reads
// MinHeat, so a corrupted cell must show there whether it is a key cell
// or a directory cell in the dense table (whose never-charged cells read
// as a harmless zero).
func TestMinHeatSeesEveryCell(t *testing.T) {
	_, p, files := fixture(t)
	s := NewServer(0, 1000, 4, 0.5)
	e := p.GoverningEntry(files[0])
	s.BeginTick()
	s.Serve(e, files[0], 0)
	if got := s.MinHeat(); got < 0 || got > 1 {
		t.Fatalf("healthy table: MinHeat = %v", got)
	}
	dir := &s.heat.byDir[files[0].Parent.DirNum()]
	dir.val = -3
	if got := s.MinHeat(); got != -3 {
		t.Fatalf("corrupted directory cell: MinHeat = %v, want -3", got)
	}
	dir.val = 1
	s.heat.byKey[e.Key].val = -2
	if got := s.MinHeat(); got != -2 {
		t.Fatalf("corrupted key cell: MinHeat = %v, want -2", got)
	}
}

// refDecay is the per-component read the fused decay replaced (value
// and readValue before they shared one helper): x stamped at epoch
// stamp, decayed to t's epoch through t's own power table.
func refDecay(t *heatTable, x float64, stamp int64) float64 {
	k := t.epoch - stamp
	if k <= 0 {
		return x
	}
	p, ok := t.powAt(k)
	if !ok {
		return 0
	}
	if v := x * p; v >= heatFloor {
		return v
	}
	return 0
}

// TestBumpNMatchesValue: bumpN folds the decay of both components at
// once; it must land, bit for bit, on value(c)+n and readValue(c)+nRead
// as each component computed them alone — across epoch gaps from none
// (and a cell stamped ahead) to past powCutoff, for values on both sides
// of heatFloor. SeedHeatRW's fold and clamp are held to the same
// reference.
func TestBumpNMatchesValue(t *testing.T) {
	vals := []float64{0, 0.004, heatFloor, 0.0125, 0.3, 1, 7.77, 1234.5678, 3e9}
	for _, decay := range []float64{0.5, 0.9, 1} {
		tab := newHeatTable(decay)
		tab.epoch = 300
		for _, gap := range []int64{-1, 0, 1, 2, 3, 7, 40, 99, 100, 101, 250, 299} {
			for _, val := range vals {
				for _, rval := range vals {
					if rval > val {
						continue
					}
					for _, n := range [][2]int{{1, 1}, {1, 0}, {5, 3}} {
						c := &heatCell{val: val, rval: rval, epoch: tab.epoch - gap}
						wantV := refDecay(tab, val, c.epoch) + float64(n[0])
						wantR := refDecay(tab, rval, c.epoch) + float64(n[1])
						tab.bumpN(c, n[0], n[1])
						if math.Float64bits(c.val) != math.Float64bits(wantV) || math.Float64bits(c.rval) != math.Float64bits(wantR) || c.epoch != tab.epoch {
							t.Fatalf("decay %v gap %d cell (%v, %v) bumpN%v = (%v, %v) @%d, want (%v, %v) @%d",
								decay, gap, val, rval, n, c.val, c.rval, c.epoch, wantV, wantR, tab.epoch)
						}
					}
					s := NewServer(0, 1, 1, decay)
					key := namespace.FragKey{Dir: 7}
					s.heat.epoch = tab.epoch
					c := s.heat.keyCell(key)
					*c = heatCell{val: val, rval: rval, epoch: tab.epoch - gap}
					for _, seed := range [][2]float64{{2.5, 0}, {2.5, 2.5}, {0.5, 4}} {
						wantV := refDecay(s.heat, c.val, c.epoch) + seed[0]
						wantR := math.Min(refDecay(s.heat, c.rval, c.epoch)+seed[1], wantV)
						s.SeedHeatRW(key, seed[0], seed[1])
						if math.Float64bits(c.val) != math.Float64bits(wantV) || math.Float64bits(c.rval) != math.Float64bits(wantR) {
							t.Fatalf("decay %v gap %d cell (%v, %v) SeedHeatRW%v = (%v, %v), want (%v, %v)",
								decay, gap, val, rval, seed, c.val, c.rval, wantV, wantR)
						}
					}
				}
			}
		}
	}
}

// refHeat is the heat table with the ancestor walk it had before the
// chain memo: every charge walks from the parent to the entry's root,
// and every cell is kept, by key and by directory inode, in plain maps.
type refHeat struct {
	t     *heatTable // the epoch and power table only
	byKey map[namespace.FragKey]*heatCell
	byDir map[namespace.Ino]*heatCell
}

func (r *refHeat) bump(c *heatCell, n, nRead int) {
	c.val = refDecay(r.t, c.val, c.epoch) + float64(n)
	c.rval = refDecay(r.t, c.rval, c.epoch) + float64(nRead)
	c.epoch = r.t.epoch
}

func (r *refHeat) charge(key namespace.FragKey, parent *namespace.Inode, n, nRead int) {
	kc := r.byKey[key]
	if kc == nil {
		kc = &heatCell{epoch: r.t.epoch}
		r.byKey[key] = kc
	}
	r.bump(kc, n, nRead)
	kc.ops += int64(n)
	for d := parent; d != nil; d = d.Parent {
		if r.byDir[d.Ino] == nil {
			r.byDir[d.Ino] = &heatCell{}
		}
		r.bump(r.byDir[d.Ino], n, nRead)
		if d.Ino == key.Dir {
			break
		}
	}
}

// TestHeatMatchesPerOpWalk serves random ops — runs under one parent and
// parent switches, reads and writes, batch runs, subtree drops and
// epoch closes that decay, expire and purge cells — over a deep random
// tree with carved and split entries, beside a reference that walks the
// ancestors per op and purges what the table's purge would. Every
// directory cell and every key cell must equal the reference's bit for
// bit.
func TestHeatMatchesPerOpWalk(t *testing.T) {
	same := func(a, b *heatCell) bool {
		return math.Float64bits(a.val) == math.Float64bits(b.val) && math.Float64bits(a.rval) == math.Float64bits(b.rval) &&
			a.epoch == b.epoch && a.ops == b.ops
	}
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
		s := NewServer(0, 1<<30, 3, 0.8)
		s.BeginTick()
		ref := &refHeat{t: s.heat, byKey: map[namespace.FragKey]*heatCell{}, byDir: map[namespace.Ino]*heatCell{}}
		check := func(step int) {
			t.Helper()
			for _, d := range dirs {
				var got heatCell
				if n := int(d.DirNum()); n < len(s.heat.byDir) {
					got = s.heat.byDir[n]
				}
				want := heatCell{}
				if c := ref.byDir[d.Ino]; c != nil {
					want = *c
				}
				if !same(&got, &want) {
					t.Fatalf("seed %d step %d dir %s: cell %+v, reference %+v", seed, step, d.Path(), got, want)
				}
			}
			for k, c := range s.heat.byKey {
				if rc := ref.byKey[k]; rc == nil || !same(c, rc) {
					t.Fatalf("seed %d step %d key %v: cell %+v, reference %+v", seed, step, k, *c, rc)
				}
			}
			if len(s.heat.byKey) != len(ref.byKey) {
				t.Fatalf("seed %d step %d: %d key cells, reference %d", seed, step, len(s.heat.byKey), len(ref.byKey))
			}
		}
		in := all[0]
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(60); {
			case r < 2:
				// Close one epoch, or sit idle for several.
				for i := 1 + rng.Intn(1+r*20); i > 0; i-- {
					s.EndEpoch(1)
					if s.heat.epoch%heatPurgeEvery == 0 {
						// The purge: expired key cells go, and with them
						// their op counts.
						for k, rc := range ref.byKey {
							if refDecay(s.heat, rc.val, rc.epoch) == 0 {
								delete(ref.byKey, k)
							}
						}
					}
				}
			case r == 2:
				k := p.GoverningEntry(all[rng.Intn(len(all))]).Key
				s.DropSubtreeStats(k)
				delete(ref.byKey, k)
			case r == 3:
				n := 1 + rng.Intn(8)
				nRead := rng.Intn(n + 1)
				k := p.GoverningEntry(in).Key
				s.AddHeatRun(k, in, n, nRead)
				ref.charge(k, in.Parent, n, nRead)
			default:
				if rng.Intn(3) == 0 {
					in = all[rng.Intn(len(all))]
				} else if in.Parent != nil {
					// A sibling: the same parent, so the chain memo hits.
					in = in.Parent.ChildAt(rng.Intn(in.Parent.NumChildren()))
				}
				write := rng.Intn(4) == 0
				e := p.GoverningEntry(in)
				if ok, first := s.ServeDeferVisit(e, in, 0, write); !ok {
					t.Fatal("serve refused")
				} else if first {
					in.MarkVisited()
				}
				nRead := 1
				if write {
					nRead = 0
				}
				ref.charge(e.Key, in.Parent, 1, nRead)
			}
			if step%500 == 0 {
				check(step)
			}
		}
		check(20000)
		if s.heat.epoch < 2*heatPurgeEvery {
			t.Fatalf("seed %d: only %d epochs closed; the purge never ran twice", seed, s.heat.epoch)
		}
	}
}
