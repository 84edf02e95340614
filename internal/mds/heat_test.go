package mds

import (
	"math"
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
