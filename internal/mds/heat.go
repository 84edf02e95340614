package mds

import "repro/internal/namespace"

// heatFloor mirrors the eviction threshold of the original eager decay
// sweep: heat below it reads as zero and is eligible for purging.
const heatFloor = 0.01

// heatPurgeEvery is the period, in heat epochs, of the incremental
// purge that removes expired cells. The trigger depends only on the
// epoch counter — never on read patterns or map iteration order — so
// purging cannot perturb determinism.
const heatPurgeEvery = 64

// heatCell is one lazily decayed popularity counter. Instead of being
// multiplied by the decay factor on every epoch close (an O(table)
// sweep), the cell records the heat epoch it was last written in; reads
// decay it on the fly as val × decay^(now−stamp). A value that has
// decayed below heatFloor reads as zero, exactly like the eager sweep
// that deleted such entries.
type heatCell struct {
	val   float64
	epoch int64
	// rval is the read component of val: the decayed heat contributed by
	// read ops only. It shares val's epoch stamp (every write to the cell
	// folds pending decay into both), and rval <= val always holds — val
	// remains the exact total so every legacy consumer is unchanged. The
	// read fraction rval/val drives the migrate-vs-replicate decision.
	rval float64
	// ops counts raw accesses charged to the cell (no decay) — the
	// replication journal's delta source. Only key cells maintain it.
	ops int64
}

// heatTable holds the decayed popularity counters of one MDS, by
// subtree entry and by directory. Epoch close is O(1): it advances the
// epoch stamp, and every heatPurgeEvery epochs sweeps out expired key
// cells. A table belongs to one server, and a run is one goroutine, so
// nothing here is shared.
type heatTable struct {
	decay float64
	epoch int64
	byKey map[namespace.FragKey]*heatCell
	// lastKey/last memoize the last key cell charged (last == nil: no
	// memo): a rank serves runs of one client's consecutive ops, which
	// mostly share their governing entry. Whatever deletes a key cell
	// must drop the memo (dropKey, the purge in endEpoch).
	lastKey namespace.FragKey
	last    *heatCell
	// byDir is indexed by Inode.DirNum and grown to the highest
	// directory charged. A never-charged cell is the zero heatCell, which
	// reads as zero heat exactly like an expired one, so directory cells
	// need no purge. chain memoizes which cells an op under a parent
	// directory charges.
	byDir []heatCell
	chain namespace.DirChain
	// tenants is the tenant dimension of byKeyT (0 = single-tenant
	// cluster; no per-tenant split is kept and bumpTenant is never
	// called).
	tenants int
	// byKeyT attributes each key's heat to the tenants that generated
	// it — the fairness signal behind "throttle, don't migrate". Only
	// allocated when the cluster runs with tenant QoS.
	byKeyT map[namespace.FragKey]*tenantCell
	// pow[k] = decay^k, built incrementally by repeated multiplication
	// (so pow[k] is exactly what k eager sweeps would have multiplied
	// by, up to floating-point reassociation). Once decay^k underflows
	// past powCutoff every later power reads as zero.
	pow []float64
}

// powCutoff: below this, decay^k × any realistic heat is far under
// heatFloor, so the pow table stops growing and the value reads as 0.
const powCutoff = 1e-30

func newHeatTable(decay float64) *heatTable {
	return &heatTable{
		decay: decay,
		byKey: make(map[namespace.FragKey]*heatCell),
		pow:   []float64{1},
	}
}

// decayed returns the cell's total and read heat at the current
// epoch: each component × decay^(now−stamp), read as zero below
// heatFloor, so rval <= val survives the decay.
func (t *heatTable) decayed(c *heatCell) (val, rval float64) {
	if c.epoch >= t.epoch {
		return c.val, c.rval
	}
	if p, ok := t.powAt(t.epoch - c.epoch); ok {
		return floorHeat(c.val * p), floorHeat(c.rval * p)
	}
	return 0, 0
}

// floorHeat reads heat below heatFloor as zero.
func floorHeat(v float64) float64 {
	if v < heatFloor {
		return 0
	}
	return v
}

// value returns the cell's decayed heat at the current epoch.
func (t *heatTable) value(c *heatCell) float64 {
	v, _ := t.decayed(c)
	return v
}

// powAt returns decay^k; ok is false when the power has underflowed
// past powCutoff (value reads as zero).
func (t *heatTable) powAt(k int64) (float64, bool) {
	for int64(len(t.pow)) <= k {
		next := t.pow[len(t.pow)-1] * t.decay
		if next < powCutoff {
			return 0, false
		}
		t.pow = append(t.pow, next)
	}
	return t.pow[k], true
}

// bumpN folds the pending decay into the cell and adds n accesses in
// one write, nRead of which were reads. The write-back batch path
// charges a run this way; the sync path bumps once per op. The two are
// not interchangeable: in float64, n unit additions and one addition of
// n can differ in the last bit.
func (t *heatTable) bumpN(c *heatCell, n, nRead int) {
	if c.epoch != t.epoch {
		t.fold(c)
	}
	c.val += float64(n)
	c.rval += float64(nRead)
}

// fold writes the cell's pending decay into it and restamps it. It is
// bumpN's once-per-epoch slow path, kept out of line so that bumpN
// inlines.
//
//go:noinline
func (t *heatTable) fold(c *heatCell) {
	c.val, c.rval = t.decayed(c)
	c.epoch = t.epoch
}

// keyCell returns the cell for a subtree entry, creating it on first use.
func (t *heatTable) keyCell(key namespace.FragKey) *heatCell {
	if t.last != nil && t.lastKey == key {
		return t.last
	}
	c := t.byKey[key]
	if c == nil {
		c = &heatCell{epoch: t.epoch}
		t.byKey[key] = c
	}
	t.lastKey, t.last = key, c
	return c
}

// dropKey deletes a subtree entry's cells (the subtree migrated away).
func (t *heatTable) dropKey(key namespace.FragKey) {
	delete(t.byKey, key)
	delete(t.byKeyT, key)
	t.last = nil // may point at the cell just deleted
}

// charge adds n accesses, nRead of them reads, to the subtree entry's
// cell and to every directory from parent up to and including the
// entry's root, and returns the entry's cell.
func (t *heatTable) charge(key namespace.FragKey, parent *namespace.Inode, n, nRead int) *heatCell {
	kc := t.keyCell(key)
	t.bumpN(kc, n, nRead)
	dirs := t.chain.Nums(parent, key.Dir)
	if len(dirs) > 0 && int(dirs[0]) >= len(t.byDir) {
		t.byDir = append(t.byDir, make([]heatCell, int(dirs[0])+1-len(t.byDir))...)
	}
	for _, i := range dirs {
		t.bumpN(&t.byDir[i], n, nRead)
	}
	return kc
}

// dirHeat returns the directory's decayed heat and its read component
// (zero for a directory never charged).
func (t *heatTable) dirHeat(dir *namespace.Inode) (total, read float64) {
	i := int(dir.DirNum())
	if i >= len(t.byDir) {
		return 0, 0
	}
	return t.decayed(&t.byDir[i])
}

// endEpoch closes the current heat epoch in O(1); every heatPurgeEvery
// epochs it also sweeps out the expired key cells.
func (t *heatTable) endEpoch() {
	t.epoch++
	if t.epoch%heatPurgeEvery != 0 {
		return
	}
	// Remove expired cells. Deletion only — the surviving state does
	// not depend on map iteration order, so this stays deterministic.
	t.last = nil // may point at a cell about to be deleted
	for k, c := range t.byKey {
		if t.value(c) == 0 {
			delete(t.byKey, k)
		}
	}
	for k, c := range t.byKeyT {
		sum := 0.0
		for _, v := range c.vals {
			sum += v
		}
		if p, ok := t.powAt(t.epoch - c.epoch); ok && sum*p >= heatFloor {
			continue
		}
		delete(t.byKeyT, k)
	}
}

// entries counts the subtree cells currently carrying non-negligible
// heat. Pure read: no mutation, no order dependence.
func (t *heatTable) entries() int {
	n := 0
	for _, c := range t.byKey {
		if t.value(c) > 0 {
			n++
		}
	}
	return n
}

// minValue returns the smallest decayed value across all cells —
// never-charged directory cells included, which read 0 — or 0 for an
// empty table. Pure read: min is order-independent, so this cannot
// perturb determinism.
func (t *heatTable) minValue() float64 {
	min := 0.0
	first := true
	for _, c := range t.byKey {
		if v := t.value(c); first || v < min {
			min, first = v, false
		}
	}
	for i := range t.byDir {
		if v := t.value(&t.byDir[i]); first || v < min {
			min, first = v, false
		}
	}
	if first {
		return 0
	}
	return min
}

// tenantCell tracks one key's per-tenant decayed heat split — which
// tenant is responsible for the key being hot. It shares the table's
// epoch/decay regime: all components decay by the same factor, so the
// per-tenant shares (and therefore the dominance test) are invariant
// under pending decay.
type tenantCell struct {
	vals  []float64
	epoch int64
}

// setTenants gives the table a tenant dimension. Idempotent; called at
// cluster construction and again after Rejoin rebuilds the table.
func (t *heatTable) setTenants(n int) {
	t.tenants = n
	if n > 0 && t.byKeyT == nil {
		t.byKeyT = make(map[namespace.FragKey]*tenantCell)
	}
}

// bumpTenant folds pending decay into the key's tenant split and
// charges n accesses to tenant tn. Only called when the table has a
// tenant dimension.
func (t *heatTable) bumpTenant(key namespace.FragKey, tn, n int) {
	c := t.byKeyT[key]
	if c == nil {
		c = &tenantCell{vals: make([]float64, t.tenants), epoch: t.epoch}
		t.byKeyT[key] = c
	}
	if k := t.epoch - c.epoch; k > 0 {
		p, ok := t.powAt(k)
		if !ok {
			p = 0
		}
		for i := range c.vals {
			c.vals[i] *= p
		}
		c.epoch = t.epoch
	}
	c.vals[tn] += float64(n)
}

// dominantTenant returns the tenant responsible for MORE than half of
// the key's tenant-attributed heat, or -1 when no tenant dominates.
// Pending decay scales every component equally, so the shares need no
// fold before comparing.
func (t *heatTable) dominantTenant(key namespace.FragKey) int {
	c := t.byKeyT[key]
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
