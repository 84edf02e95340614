package trace

import (
	"math"
	"testing"

	"repro/internal/namespace"
)

// TestHeatPurgeRemovesExpiredCells: the periodic purge frees the
// records whose heat expired (the lazy design's answer to unbounded
// growth) without touching live ones, and keeps a record while any of
// its parts — heat, tenant split, window counters — is live.
func TestHeatPurgeRemovesExpiredCells(t *testing.T) {
	_, _, files := fixture(t)
	c := New(2, 0.5)
	c.EnableTenants(2)
	key := func(i int) namespace.FragKey { return namespace.FragKey{Dir: namespace.Ino(1000 + i)} }
	for i := 0; i < 1000; i++ {
		c.ChargeRun(key(i), nil, 0, 1, 0, 0)
	}
	windowed, tenanted := key(1000), key(1001)
	c.RecordNoVisit(windowed, files[0], 0)
	c.AddTenantHeat(tenanted, 1, 1)
	if got := len(c.recs); got != 1002 {
		t.Fatalf("table has %d records, want 1002", got)
	}
	for e := 0; e < heatPurgeEvery; e++ {
		c.ChargeRun(key(0), nil, 0, 1, 0, 0) // keep one key hot across every epoch
		if e%4 == 0 {
			c.AddTenantHeat(tenanted, 1, 1) // and one tenant split
		}
		c.EndEpoch()
	}
	if got := len(c.recs); got != 3 {
		t.Fatalf("after purge: %d records, want the hot key, the windowed and the tenanted one", got)
	}
	if c.value(&c.recs[key(0)].heat) == 0 {
		t.Fatal("hot cell must survive the purge")
	}
	if got := c.RecentKey(windowed, 0, 1); got.Visits != 1 {
		t.Fatalf("live window counters after purge: %+v", got)
	}
	if ops, _, _ := c.KeyHeat(tenanted); ops != 0 || c.DominantTenant(tenanted) != 1 {
		t.Fatalf("tenanted key after purge: ops %d, dominant %d; want 0 and 1", ops, c.DominantTenant(tenanted))
	}
	// Recycling epoch 0's window kills the windowed record's last part.
	for e := int64(1); e <= 3; e++ {
		c.RecordNoVisit(key(0), files[1], e)
	}
	for e := 0; e < heatPurgeEvery; e++ {
		c.ChargeRun(key(0), nil, 3, 1, 0, 0)
		c.EndEpoch()
	}
	if _, ok := c.recs[windowed]; ok || len(c.recs) != 1 {
		t.Fatalf("after the window recycled: %d records, windowed kept %v", len(c.recs), ok)
	}
}

// TestMinHeatSeesEveryCell: the auditor's negative-heat check reads
// MinHeat, so a corrupted cell must show there whether it is a key cell
// or a directory cell in the dense table (whose never-charged cells read
// as a harmless zero).
func TestMinHeatSeesEveryCell(t *testing.T) {
	_, d, files := fixture(t)
	c := New(4, 0.5)
	c.Charge(rootKey(), files[0], 0, false)
	if got := c.MinHeat(); got < 0 || got > 1 {
		t.Fatalf("healthy table: MinHeat = %v", got)
	}
	dir := &c.heatDir[d.DirNum()]
	dir.val = -3
	if got := c.MinHeat(); got != -3 {
		t.Fatalf("corrupted directory cell: MinHeat = %v, want -3", got)
	}
	dir.val = 1
	c.recs[rootKey()].heat.val = -2
	if got := c.MinHeat(); got != -2 {
		t.Fatalf("corrupted key cell: MinHeat = %v, want -2", got)
	}
}

// refDecay is the per-component read the fused decay replaced (value
// and readValue before they shared one helper): x stamped at epoch
// stamp, decayed to c's heat epoch through c's own power table.
func refDecay(c *Collector, x float64, stamp int64) float64 {
	k := c.heatEpoch - stamp
	if k <= 0 {
		return x
	}
	p, ok := c.powAt(k)
	if !ok {
		return 0
	}
	if v := x * p; v >= heatFloor {
		return v
	}
	return 0
}

// TestBumpNMatchesValue: bump folds the decay of both components at
// once; it must land, bit for bit, on value(c)+n and readValue(c)+nRead
// as each component computed them alone — across epoch gaps from none
// (and a cell stamped ahead) to past powCutoff, for values on both sides
// of heatFloor. SeedHeat's fold and clamp are held to the same
// reference.
func TestBumpNMatchesValue(t *testing.T) {
	vals := []float64{0, 0.004, heatFloor, 0.0125, 0.3, 1, 7.77, 1234.5678, 3e9}
	for _, decay := range []float64{0.5, 0.9, 1} {
		tab := New(1, decay)
		tab.heatEpoch = 300
		for _, gap := range []int64{-1, 0, 1, 2, 3, 7, 40, 99, 100, 101, 250, 299} {
			for _, val := range vals {
				for _, rval := range vals {
					if rval > val {
						continue
					}
					for _, n := range [][2]int{{1, 1}, {1, 0}, {5, 3}} {
						h := &heatCell{val: val, rval: rval, epoch: tab.heatEpoch - gap}
						wantV := refDecay(tab, val, h.epoch) + float64(n[0])
						wantR := refDecay(tab, rval, h.epoch) + float64(n[1])
						tab.bump(h, n[0], n[1])
						if math.Float64bits(h.val) != math.Float64bits(wantV) || math.Float64bits(h.rval) != math.Float64bits(wantR) || h.epoch != tab.heatEpoch {
							t.Fatalf("decay %v gap %d cell (%v, %v) bump%v = (%v, %v) @%d, want (%v, %v) @%d",
								decay, gap, val, rval, n, h.val, h.rval, h.epoch, wantV, wantR, tab.heatEpoch)
						}
					}
					s := New(1, decay)
					key := namespace.FragKey{Dir: 7}
					s.heatEpoch = tab.heatEpoch
					h := &s.rec(key).heat
					*h = heatCell{val: val, rval: rval, epoch: tab.heatEpoch - gap}
					for _, seed := range [][2]float64{{2.5, 0}, {2.5, 2.5}, {0.5, 4}} {
						wantV := refDecay(s, h.val, h.epoch) + seed[0]
						wantR := math.Min(refDecay(s, h.rval, h.epoch)+seed[1], wantV)
						s.SeedHeat(key, seed[0], seed[1])
						if math.Float64bits(h.val) != math.Float64bits(wantV) || math.Float64bits(h.rval) != math.Float64bits(wantR) {
							t.Fatalf("decay %v gap %d cell (%v, %v) SeedHeat%v = (%v, %v), want (%v, %v)",
								decay, gap, val, rval, seed, h.val, h.rval, wantV, wantR)
						}
					}
				}
			}
		}
	}
}
