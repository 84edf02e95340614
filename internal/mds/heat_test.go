package mds

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/namespace"
)

// The reference models below restate two constants of the statistics
// table: heat under heatFloor reads as zero, and every purgeEvery heat
// epochs a purge resets expired heat.
const (
	heatFloor  = 0.01
	purgeEvery = 64
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

// heatKey names a key of no directory, so a heat-only run charges it
// alone.
func heatKey(id int) namespace.FragKey { return namespace.FragKey{Dir: namespace.Ino((id + 1) << 20)} }

// TestLazyHeatMatchesEagerSweep drives a server's lazy heat and the
// eager reference through an identical deterministic schedule of bumps
// and epoch closes — including gaps long enough for values to expire
// and for the periodic purge to run — and asserts every read agrees
// within floating-point reassociation error (lazy computes val×decay^k
// with a precomputed power; eager multiplies k times in sequence).
func TestLazyHeatMatchesEagerSweep(t *testing.T) {
	const decay = 0.5
	s := NewServer(0, 1, 4, decay)
	eager := &eagerHeat{decay: decay, vals: map[int]float64{}}
	check := func(step int, ids ...int) {
		t.Helper()
		for _, id := range ids {
			got := s.HeatOfKey(heatKey(id))
			want := eager.read(id)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("step %d, cell %d: lazy %v != eager %v", step, id, got, want)
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
				s.Collector().ChargeRun(heatKey(b.id), nil, 0, 1, 0, 0)
				eager.bump(b.id)
			}
		}
		check(step, 0, 1, 2, 3, 4, 5, 6)
		s.EndEpoch(1)
		eager.endEpoch()
		check(step, 0, 1, 2, 3, 4, 5, 6)
	}

	// Cell 1 stopped being bumped at step 10 with heat ~6; at decay 0.5
	// it is far below the floor by now and must read as zero.
	if v := s.HeatOfKey(heatKey(1)); v != 0 {
		t.Fatalf("expired cell reads %v, want 0", v)
	}
}

// TestHeatMemoInvalidation: the last-key memo holds a pointer to a key's
// record, so whatever deletes or resets one must leave the memo
// pointing at nothing stale — otherwise the next charge lands where no
// reader can reach (or, on Rejoin, in a table that should be gone).
// Each case heats one key, disturbs the server, heats the key once
// more, and must read exactly that one access.
func TestHeatMemoInvalidation(t *testing.T) {
	cases := []struct {
		name    string
		disturb func(s *Server, key namespace.FragKey)
	}{
		{"purge", func(s *Server, key namespace.FragKey) {
			// At decay 0.5 one access is under heatFloor after 7 epochs;
			// the purge at the purgeEvery boundary resets the key.
			for i := 0; i < purgeEvery; i++ {
				s.EndEpoch(10)
			}
			if ops, _ := s.KeyStats(key); ops != 0 {
				t.Fatal("fixture: the purge must reset the expired key")
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

// TestHeatPurgeFollowsHeatEpoch: the purge counts the server's own
// epoch closes (its heat epoch), not the absolute epoch its ops are
// served in. A rank that rejoins, or is built mid-run as AddMDS builds
// one, at an absolute epoch not ≡ 0 mod purgeEvery must reset an
// expired key's ops at exactly the heat epoch a fresh server does,
// while the rest of its traffic keeps the absolute epoch moving.
func TestHeatPurgeFollowsHeatEpoch(t *testing.T) {
	_, p, files := fixture(t)
	probe := p.GoverningEntry(files[0])
	other := namespace.Entry{Key: heatKey(0)}
	// resetAt charges the probe key once at absolute epoch start, then
	// serves only other traffic, one epoch close per absolute epoch, and
	// returns the heat epoch at which the probe's ops fell to zero.
	resetAt := func(s *Server, start int64) int {
		s.BeginTick()
		s.Serve(probe, files[0], start)
		for h := 1; h <= 3*purgeEvery; h++ {
			s.BeginTick()
			s.Serve(other, files[1+h%10], start+int64(h-1))
			s.EndEpoch(1)
			if ops, _ := s.KeyStats(probe.Key); ops == 0 {
				return h
			}
		}
		return -1
	}
	want := resetAt(NewServer(0, 1000, 4, 0.5), 0)
	if want != purgeEvery {
		t.Fatalf("fresh server: ops reset at heat epoch %d, want %d", want, purgeEvery)
	}
	cases := []struct {
		name  string
		build func(start int64) *Server
	}{
		{"rejoin", func(start int64) *Server {
			s := NewServer(0, 1000, 4, 0.5)
			for e := int64(0); e < start; e++ {
				s.BeginTick()
				s.Serve(probe, files[2], e)
				s.EndEpoch(1)
			}
			s.Crash()
			s.Rejoin()
			return s
		}},
		{"added", func(int64) *Server { return NewServer(1, 1000, 4, 0.5) }},
	}
	for _, tc := range cases {
		for _, start := range []int64{37, 100} {
			if got := resetAt(tc.build(start), start); got != want {
				t.Errorf("%s at absolute epoch %d: ops reset at heat epoch %d, want %d", tc.name, start, got, want)
			}
		}
	}
}

// refHeat is the heat as three plain maps — by key, by directory inode
// and the per-key tenant split — with the ancestor walk per charge, its
// own heat epoch and power table, and the purge spelled out.
type refHeat struct {
	decay   float64
	epoch   int64
	pow     []float64
	byKey   map[namespace.FragKey]*refCell
	byDir   map[namespace.Ino]*refCell
	tenants map[namespace.FragKey]*refTenant
}

type refCell struct {
	val, rval float64
	epoch     int64
	ops       int64
}

type refTenant struct {
	vals  []float64
	epoch int64
}

func (r *refHeat) powAt(k int64) (float64, bool) {
	for int64(len(r.pow)) <= k {
		next := r.pow[len(r.pow)-1] * r.decay
		if next < 1e-30 {
			return 0, false
		}
		r.pow = append(r.pow, next)
	}
	return r.pow[k], true
}

// read is one component x stamped at stamp, decayed to now.
func (r *refHeat) read(x float64, stamp int64) float64 {
	k := r.epoch - stamp
	if k <= 0 {
		return x
	}
	p, ok := r.powAt(k)
	if !ok {
		return 0
	}
	if v := x * p; v >= heatFloor {
		return v
	}
	return 0
}

func (r *refHeat) key(k namespace.FragKey) *refCell {
	c := r.byKey[k]
	if c == nil {
		c = &refCell{epoch: r.epoch}
		r.byKey[k] = c
	}
	return c
}

func (r *refHeat) bump(c *refCell, n, nRead int) {
	c.val = r.read(c.val, c.epoch) + float64(n)
	c.rval = r.read(c.rval, c.epoch) + float64(nRead)
	c.epoch = r.epoch
}

func (r *refHeat) charge(k namespace.FragKey, parent *namespace.Inode, n, nRead int) {
	kc := r.key(k)
	r.bump(kc, n, nRead)
	kc.ops += int64(n)
	for d := parent; d != nil; d = d.Parent {
		if r.byDir[d.Ino] == nil {
			r.byDir[d.Ino] = &refCell{}
		}
		r.bump(r.byDir[d.Ino], n, nRead)
		if d.Ino == k.Dir {
			break
		}
	}
}

func (r *refHeat) seed(k namespace.FragKey, heat, read float64) {
	if heat <= 0 {
		return
	}
	c := r.key(k)
	c.val = r.read(c.val, c.epoch) + heat
	c.rval = math.Min(r.read(c.rval, c.epoch)+read, c.val)
	c.epoch = r.epoch
}

func (r *refHeat) tenant(k namespace.FragKey, tn, n, width int) {
	c := r.tenants[k]
	if c == nil {
		c = &refTenant{vals: make([]float64, width), epoch: r.epoch}
		r.tenants[k] = c
	}
	if gap := r.epoch - c.epoch; gap > 0 {
		p, _ := r.powAt(gap)
		for i := range c.vals {
			c.vals[i] *= p
		}
		c.epoch = r.epoch
	}
	c.vals[tn] += float64(n)
}

func (r *refHeat) dominant(k namespace.FragKey) int {
	c := r.tenants[k]
	if c == nil {
		return -1
	}
	best, bestV, sum := -1, 0.0, 0.0
	for i, v := range c.vals {
		sum += v
		if v > bestV {
			best, bestV = i, v
		}
	}
	if sum <= 0 || bestV*2 <= sum {
		return -1
	}
	return best
}

// endEpoch closes one heat epoch; on the purge boundary expired key
// cells and tenant splits go, and with them their op counts.
func (r *refHeat) endEpoch() {
	if r.epoch++; r.epoch%purgeEvery != 0 {
		return
	}
	for k, c := range r.byKey {
		if r.read(c.val, c.epoch) == 0 {
			delete(r.byKey, k)
		}
	}
	for k, c := range r.tenants {
		sum := 0.0
		for _, v := range c.vals {
			sum += v
		}
		if p, ok := r.powAt(r.epoch - c.epoch); !ok || sum*p < heatFloor {
			delete(r.tenants, k)
		}
	}
}

func (r *refHeat) drop(k namespace.FragKey) {
	delete(r.byKey, k)
	delete(r.tenants, k)
}

// TestHeatMatchesPerOpWalk serves random ops — runs under one parent and
// parent switches, reads and writes, write-back runs, seeds, tenant
// bumps, subtree drops and epoch closes that decay, expire and purge
// across at least three purges, while the served epoch moves on so
// window counters recycle too — over a deep random tree with carved and
// split entries, beside a reference that walks the ancestors per op.
// KeyStats, KeyHeatRW, DirHeatRW and DominantTenant must read the
// reference's values bit for bit for every entry and directory.
func TestHeatMatchesPerOpWalk(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	const tenants = 3
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
		s.EnableTenants(tenants)
		s.BeginTick()
		ref := &refHeat{decay: 0.8, pow: []float64{1}, byKey: map[namespace.FragKey]*refCell{},
			byDir: map[namespace.Ino]*refCell{}, tenants: map[namespace.FragKey]*refTenant{}}
		check := func(step int) {
			t.Helper()
			for _, d := range dirs {
				want := refCell{}
				if c := ref.byDir[d.Ino]; c != nil {
					want = *c
				}
				wt, wr := ref.read(want.val, want.epoch), ref.read(want.rval, want.epoch)
				if gt, gr := s.DirHeatRW(d); !same(gt, wt) || !same(gr, wr) {
					t.Fatalf("seed %d step %d dir %s: DirHeatRW (%v, %v), reference (%v, %v)", seed, step, d.Path(), gt, gr, wt, wr)
				}
			}
			for _, e := range p.Entries() {
				want := refCell{}
				if c := ref.byKey[e.Key]; c != nil {
					want = *c
				}
				wt, wr := ref.read(want.val, want.epoch), ref.read(want.rval, want.epoch)
				if ops, heat := s.KeyStats(e.Key); ops != want.ops || !same(heat, wt) {
					t.Fatalf("seed %d step %d key %v: KeyStats (%d, %v), reference (%d, %v)", seed, step, e.Key, ops, heat, want.ops, wt)
				}
				if gt, gr := s.KeyHeatRW(e.Key); !same(gt, wt) || !same(gr, wr) {
					t.Fatalf("seed %d step %d key %v: KeyHeatRW (%v, %v), reference (%v, %v)", seed, step, e.Key, gt, gr, wt, wr)
				}
				if got, want := s.DominantTenant(e.Key), ref.dominant(e.Key); got != want {
					t.Fatalf("seed %d step %d key %v: DominantTenant %d, reference %d", seed, step, e.Key, got, want)
				}
			}
		}
		in := all[0]
		epoch := int64(0) // the absolute epoch ops are served in
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(60); {
			case r < 2:
				// Close one epoch, or sit idle for several.
				for i := 1 + rng.Intn(1+r*20); i > 0; i-- {
					s.EndEpoch(1)
					ref.endEpoch()
					epoch++
				}
			case r == 2:
				k := p.GoverningEntry(all[rng.Intn(len(all))]).Key
				s.DropSubtreeStats(k)
				ref.drop(k)
			case r == 3:
				n := 1 + rng.Intn(8)
				nRead := rng.Intn(n + 1)
				k := p.GoverningEntry(in).Key
				s.Collector().ChargeRun(k, in.Parent, epoch, n, nRead, int64(rng.Intn(n+1)))
				ref.charge(k, in.Parent, n, nRead)
			case r == 4:
				k := p.GoverningEntry(all[rng.Intn(len(all))]).Key
				heat, read := rng.Float64()*3, rng.Float64()*3
				s.SeedHeatRW(k, heat, read)
				ref.seed(k, heat, read)
			case r == 5:
				k := p.GoverningEntry(in).Key
				tn, n := rng.Intn(tenants), 1+rng.Intn(4)
				s.AddTenantHeat(k, tn, n)
				ref.tenant(k, tn, n, tenants)
			default:
				if rng.Intn(3) == 0 {
					in = all[rng.Intn(len(all))]
				} else if in.Parent != nil {
					// A sibling: the same parent, so the chain memo hits.
					in = in.Parent.ChildAt(rng.Intn(in.Parent.NumChildren()))
				}
				write := rng.Intn(4) == 0
				e := p.GoverningEntry(in)
				if ok, first := s.ServeDeferVisit(e, in, epoch, write); !ok {
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
		if ref.epoch < 3*purgeEvery {
			t.Fatalf("seed %d: only %d epochs closed; the purge ran fewer than three times", seed, ref.epoch)
		}
	}
}
