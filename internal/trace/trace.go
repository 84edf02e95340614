// Package trace keeps one MDS rank's access statistics in one table.
// Every served access is charged to its governing subtree entry
// (FragKey) and to each directory from its parent up to that entry's
// root, in two forms the balancers read:
//
//   - cutting-window counters, the paper's "Stats recording": accesses
//     are cut into fixed windows (one per balancing epoch, a ring of
//     N+1), each counting visits, distinct inodes, recurrent visits
//     (temporal locality) and first-ever visits (spatial locality).
//     The Lunule pattern analyzer turns them into locality factors.
//   - decayed popularity ("heat") for the CephFS baseline: a total and
//     a read component per key and per directory, decayed lazily by
//     heat epoch, plus a per-tenant split of each key's heat.
//
// A key's counters, heat and tenant split sit in one record behind one
// map and one last-key memo; directories are slices indexed by
// Inode.DirNum, charged through one DirChain. A table belongs to one
// rank and a run is one goroutine, so nothing here is shared.
package trace

import (
	"repro/internal/namespace"
)

// Counters aggregates the accesses observed in one cutting window for
// one subtree (or one directory's subtree-local region).
type Counters struct {
	// Visits is the total number of metadata accesses.
	Visits int
	// Distinct is the number of distinct inodes touched in the window.
	Distinct int
	// Recurrent is the number of distinct inodes in this window that
	// had also been visited in one of the previous history windows —
	// the numerator of the paper's recurrent-visit ratio (alpha).
	Recurrent int
	// FirstVisits is the number of accesses to inodes never visited
	// before — the spatial-locality signal (beta numerator, l_s).
	FirstVisits int
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Visits += o.Visits
	c.Distinct += o.Distinct
	c.Recurrent += o.Recurrent
	c.FirstVisits += o.FirstVisits
}

// heatFloor mirrors the eviction threshold of the original eager decay
// sweep: heat below it reads as zero and is eligible for purging.
const heatFloor = 0.01

// heatPurgeEvery is the period, in heat epochs, of the purge that
// resets expired heat. The trigger depends only on the heat epoch —
// never on read patterns or map iteration order — so purging cannot
// perturb determinism.
const heatPurgeEvery = 64

// powCutoff: below this, decay^k × any realistic heat is far under
// heatFloor, so the power table stops growing and the value reads as 0.
const powCutoff = 1e-30

// heatCell is one lazily decayed popularity counter. Instead of being
// multiplied by the decay factor on every epoch close, the cell records
// the heat epoch it was last written in; reads decay it on the fly as
// val × decay^(now−stamp), and a value below heatFloor reads as zero,
// exactly like the eager sweep that deleted such entries.
type heatCell struct {
	val   float64
	epoch int64
	// rval is the read component of val, sharing its stamp; rval <= val
	// always holds. The read fraction drives migrate-vs-replicate.
	rval float64
	// ops counts raw accesses charged to a key (no decay) — the
	// replication journal's delta source.
	ops int64
}

// slot is a key's counters in one ring window, valid while its gen
// equals the window's: BeginEpoch gives a reopened window a new gen, so
// every key's old slot reads empty without being visited.
type slot struct {
	gen uint64
	Counters
}

// record is everything the table holds for one subtree entry.
type record struct {
	heat heatCell
	// tenant splits the key's heat by tenant, folded to tenantEpoch; nil
	// until the first AddTenantHeat.
	tenant      []float64
	tenantEpoch int64
	// win holds one slot per ring window; nil until a window charge.
	win []slot
}

// window is one cutting window: its epoch, its generation and its
// per-directory counters, indexed by DirNum and grown to the highest
// directory charged (a never-touched directory reads as zero).
type window struct {
	epoch int64
	gen   uint64
	byDir []Counters
}

// Collector is one rank's access-statistics table. When a subtree
// migrates, the importer's table starts cold for it, exactly as a real
// importer would.
type Collector struct {
	// The per-op fields come first, so a charge touches few cache lines.
	history int // number of windows retained and used for classification
	ring    []window
	cur     int // the ring index BeginEpoch last opened
	recs    map[namespace.FragKey]*record
	// lastKey/last memoize the last record charged (last == nil: no
	// memo): a rank serves runs of one client's consecutive ops, which
	// mostly share their governing entry. Whatever deletes a record
	// drops the memo.
	lastKey   namespace.FragKey
	last      *record
	chain     namespace.DirChain
	heatEpoch int64      // EndEpoch calls since the table was built
	heatDir   []heatCell // by DirNum; a never-charged cell reads zero

	gen     uint64 // the last window generation handed out
	decay   float64
	tenants int // the tenant split's width (0: no split)
	// pow[k] = decay^k, built by repeated multiplication, so pow[k] is
	// exactly what k eager sweeps would have multiplied by.
	pow []float64
}

// New creates a rank's table retaining the given number of recent
// cutting windows (the paper's N), with heatDecay in (0, 1] the
// per-epoch multiplicative decay of its heat. history must be in
// [1, 31], the depth to which an inode's 32-epoch access history
// (namespace.Hot) tells exactly whether it was visited in the previous
// N windows.
func New(history int, heatDecay float64) *Collector {
	if history < 1 || history > 31 {
		panic("trace: history must be in [1, 31]")
	}
	if heatDecay <= 0 || heatDecay > 1 {
		panic("trace: heat decay must be in (0, 1]")
	}
	ring := make([]window, history+1)
	for i := range ring {
		// Every window starts at epoch -1 so the first record (possibly
		// at epoch 0) opens its window.
		ring[i].epoch = -1
	}
	return &Collector{
		history: history,
		ring:    ring,
		recs:    make(map[namespace.FragKey]*record),
		decay:   heatDecay,
		pow:     []float64{1},
	}
}

// NewCollector creates a table for window counters alone: New without
// heat decay, for callers that never charge heat.
func NewCollector(history int) *Collector { return New(history, 1) }

// Fresh returns an empty table with c's history, decay and tenant
// width: what a restarted rank starts from.
func (c *Collector) Fresh() *Collector {
	f := New(c.history, c.decay)
	f.tenants = c.tenants
	return f
}

// BeginEpoch opens the cutting window for the given epoch, recycling the
// oldest window in the ring.
func (c *Collector) BeginEpoch(epoch int64) {
	c.cur = int(epoch % int64(len(c.ring)))
	w := &c.ring[c.cur]
	if w.epoch == epoch {
		return
	}
	c.gen++
	w.epoch, w.gen = epoch, c.gen
	clear(w.byDir)
}

// rec returns the key's record, creating it on first use.
func (c *Collector) rec(key namespace.FragKey) *record {
	if c.last != nil && c.lastKey == key {
		return c.last
	}
	r := c.recs[key]
	if r == nil {
		r = &record{heat: heatCell{epoch: c.heatEpoch}}
		c.recs[key] = r
	}
	c.lastKey, c.last = key, r
	return r
}

// charge adds delta to epoch's window and n accesses, nRead of them
// reads, to the heat, each for the key and for every directory from
// parent up to and including the key's root. A zero delta leaves the
// windows alone and n = 0 the heat: a fold without a bump would not
// read back bit-equal.
func (c *Collector) charge(key namespace.FragKey, parent *namespace.Inode, epoch int64, delta Counters, n, nRead int) {
	r := c.rec(key)
	var w *window
	if delta.Visits > 0 {
		if epoch != c.ring[c.cur].epoch {
			c.BeginEpoch(epoch)
		}
		w = &c.ring[c.cur]
		if r.win == nil {
			r.win = make([]slot, len(c.ring))
		}
		s := &r.win[c.cur]
		if s.gen != w.gen {
			*s = slot{gen: w.gen}
		}
		s.Add(delta)
	}
	if n > 0 {
		c.bump(&r.heat, n, nRead)
		r.heat.ops += int64(n)
	}
	dirs := c.chain.Nums(parent, key.Dir)
	if len(dirs) == 0 {
		return
	}
	top := int(dirs[0]) + 1
	if w != nil {
		if top > len(w.byDir) {
			w.byDir = append(w.byDir, make([]Counters, top-len(w.byDir))...)
		}
		byDir := w.byDir
		for _, d := range dirs {
			byDir[d].Add(delta)
		}
	}
	if n > 0 {
		if top > len(c.heatDir) {
			c.heatDir = append(c.heatDir, make([]heatCell, top-len(c.heatDir))...)
		}
		heatDir := c.heatDir
		for _, d := range dirs {
			c.bump(&heatDir[d], n, nRead)
		}
	}
}

// classify returns the window delta of one access to in at epoch and
// touches the inode's access history, so each access must be
// classified exactly once. Per the paper, an access is recurrent when
// the inode was visited in one of the previous N windows (counted once
// per inode per window) and a first visit when it was never accessed.
func (c *Collector) classify(in *namespace.Inode, epoch int64) (delta Counters, firstEver bool) {
	everSeen := in.Hot.EverAccessed()
	delta.Visits = 1
	if !in.Hot.AccessedIn(epoch) {
		delta.Distinct = 1
		if everSeen && in.Hot.RecentEpochs(epoch-1, c.history) > 0 {
			delta.Recurrent = 1
		}
	}
	if !everSeen {
		delta.FirstVisits = 1
	}
	in.Hot.Touch(epoch)
	return delta, !everSeen
}

// Record classifies one access to in, governed by the subtree entry
// key, into the current window and marks a first-ever visit.
func (c *Collector) Record(key namespace.FragKey, in *namespace.Inode, epoch int64) {
	if c.RecordNoVisit(key, in, epoch) {
		in.MarkVisited()
	}
}

// RecordNoVisit is Record with the first-ever-visit MarkVisited side
// effect left to the caller: it returns true when the inode had never
// been accessed before. It charges the windows only, not the heat.
func (c *Collector) RecordNoVisit(key namespace.FragKey, in *namespace.Inode, epoch int64) (firstEver bool) {
	delta, firstEver := c.classify(in, epoch)
	c.charge(key, in.Parent, epoch, delta, 0, 0)
	return firstEver
}

// Charge is one served access: RecordNoVisit plus one heat bump, a
// read unless write, in one key lookup and one chain lookup.
func (c *Collector) Charge(key namespace.FragKey, in *namespace.Inode, epoch int64, write bool) (firstEver bool) {
	delta, firstEver := c.classify(in, epoch)
	nRead := 1
	if write {
		nRead = 0
	}
	c.charge(key, in.Parent, epoch, delta, 1, nRead)
	return firstEver
}

// freshDelta is the window delta of n first-ever accesses to freshly
// created inodes: every one is a first, distinct, non-recurrent visit.
func freshDelta(n int64) Counters {
	return Counters{Visits: int(n), Distinct: int(n), FirstVisits: int(n)}
}

// RecordFreshRun records n first-ever accesses to freshly created
// inodes under one parent directory as one window delta and one chain
// charge. It charges the windows only; the caller owes each inode its
// Hot.Touch and MarkVisited.
func (c *Collector) RecordFreshRun(key namespace.FragKey, parent *namespace.Inode, epoch int64, n int64) {
	if n > 0 {
		c.charge(key, parent, epoch, freshDelta(n), 0, 0)
	}
}

// ChargeRun is a write-back run of n accesses under one parent, nRead
// of them reads and fresh of them first-ever accesses to new inodes:
// one n-weighted heat bump (the batch path's amortized form of n sync
// bumps, which can differ in the last bit) and the fresh inodes'
// window delta, in one chain walk. The run's other accesses were
// classified one by one with RecordNoVisit.
func (c *Collector) ChargeRun(key namespace.FragKey, parent *namespace.Inode, epoch int64, n, nRead int, fresh int64) {
	if n > 0 {
		c.charge(key, parent, epoch, freshDelta(fresh), n, nRead)
	}
}

// sumWindows folds fn over the valid windows among the last n epochs
// ending at epoch.
func (c *Collector) sumWindows(epoch int64, n int, fn func(i int, w *window) Counters) Counters {
	if n > c.history {
		n = c.history
	}
	var total Counters
	for e := epoch; e > epoch-int64(n) && e >= 0; e-- {
		i := int(e % int64(len(c.ring)))
		if w := &c.ring[i]; w.epoch == e {
			total.Add(fn(i, w))
		}
	}
	return total
}

// RecentKey returns the summed counters for the subtree entry over the
// last n cutting windows ending at epoch (n is clamped to the history).
func (c *Collector) RecentKey(key namespace.FragKey, epoch int64, n int) Counters {
	r := c.recs[key]
	if r == nil || r.win == nil {
		return Counters{}
	}
	return c.sumWindows(epoch, n, func(i int, w *window) Counters {
		if r.win[i].gen == w.gen {
			return r.win[i].Counters
		}
		return Counters{}
	})
}

// RecentDir returns the summed counters attributed to the directory's
// region over the last n cutting windows ending at epoch.
func (c *Collector) RecentDir(dir *namespace.Inode, epoch int64, n int) Counters {
	num := int(dir.DirNum())
	return c.sumWindows(epoch, n, func(_ int, w *window) Counters {
		if num < len(w.byDir) {
			return w.byDir[num]
		}
		return Counters{}
	})
}

// Forget drops everything the table holds for a subtree entry — its
// window counters, heat and tenant split. Exporters call it after the
// subtree migrated away; the directories keep their counters.
func (c *Collector) Forget(key namespace.FragKey) {
	delete(c.recs, key)
	c.last = nil // may point at the record just deleted
}

// decayed returns the cell's total and read heat at the current heat
// epoch: each component × decay^(now−stamp), read as zero below
// heatFloor, so rval <= val survives the decay.
func (c *Collector) decayed(h *heatCell) (val, rval float64) {
	if h.epoch >= c.heatEpoch {
		return h.val, h.rval
	}
	if p, ok := c.powAt(c.heatEpoch - h.epoch); ok {
		return floorHeat(h.val * p), floorHeat(h.rval * p)
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

// value returns the cell's decayed heat at the current heat epoch.
func (c *Collector) value(h *heatCell) float64 {
	v, _ := c.decayed(h)
	return v
}

// powAt returns decay^k; ok is false when the power has underflowed
// past powCutoff (value reads as zero).
func (c *Collector) powAt(k int64) (float64, bool) {
	for int64(len(c.pow)) <= k {
		next := c.pow[len(c.pow)-1] * c.decay
		if next < powCutoff {
			return 0, false
		}
		c.pow = append(c.pow, next)
	}
	return c.pow[k], true
}

// bump folds the pending decay into the cell and adds n accesses in
// one write, nRead of which were reads.
func (c *Collector) bump(h *heatCell, n, nRead int) {
	if h.epoch != c.heatEpoch {
		c.fold(h)
	}
	h.val += float64(n)
	h.rval += float64(nRead)
}

// fold writes the cell's pending decay into it and restamps it. It is
// bump's once-per-epoch slow path, kept out of line so that bump
// inlines.
//
//go:noinline
func (c *Collector) fold(h *heatCell) {
	h.val, h.rval = c.decayed(h)
	h.epoch = c.heatEpoch
}

// EndEpoch closes the current heat epoch in O(1); every heatPurgeEvery
// heat epochs it also purges. The purge resets expired heat and tenant
// splits in place — ops restarts at 0, as for a new key — and deletes
// a record once none of its heat, split or window counters is live.
// Resetting and deleting only, so the surviving state does not depend
// on map iteration order.
func (c *Collector) EndEpoch() {
	c.heatEpoch++
	if c.heatEpoch%heatPurgeEvery != 0 {
		return
	}
	c.last = nil // may point at a record about to be deleted
	for k, r := range c.recs {
		live := c.value(&r.heat) > 0
		if !live {
			r.heat = heatCell{epoch: c.heatEpoch}
		}
		if r.tenant != nil {
			sum := 0.0
			for _, v := range r.tenant {
				sum += v
			}
			if p, ok := c.powAt(c.heatEpoch - r.tenantEpoch); ok && sum*p >= heatFloor {
				live = true
			} else {
				clear(r.tenant)
				r.tenantEpoch = c.heatEpoch
			}
		}
		if !live && !c.windowsLive(r) {
			delete(c.recs, k)
		}
	}
}

// windowsLive reports whether any of the record's slots belongs to a
// window still in the ring.
func (c *Collector) windowsLive(r *record) bool {
	for i, s := range r.win {
		if s.gen != 0 && s.gen == c.ring[i].gen {
			return true
		}
	}
	return false
}

// KeyHeat returns the subtree entry's raw access count and its decayed
// heat split into the total and its read component.
func (c *Collector) KeyHeat(key namespace.FragKey) (ops int64, total, read float64) {
	r := c.recs[key]
	if r == nil {
		return 0, 0, 0
	}
	total, read = c.decayed(&r.heat)
	return r.heat.ops, total, read
}

// DirHeat returns the directory's decayed heat and its read component
// (zero for a directory never charged).
func (c *Collector) DirHeat(dir *namespace.Inode) (total, read float64) {
	i := int(dir.DirNum())
	if i >= len(c.heatDir) {
		return 0, 0
	}
	return c.decayed(&c.heatDir[i])
}

// SeedHeat adds warm heat with a read component to a subtree entry,
// after folding its pending decay; read is clamped to the total to
// keep rval <= val. Non-positive seeds are ignored.
func (c *Collector) SeedHeat(key namespace.FragKey, heat, read float64) {
	if heat <= 0 {
		return
	}
	h := &c.rec(key).heat
	v, rv := c.decayed(h)
	h.val, rv = v+heat, rv+read
	if rv > h.val {
		rv = h.val
	}
	h.rval = rv
	h.epoch = c.heatEpoch
}

// HeatEntries counts the subtree entries carrying non-negligible heat.
func (c *Collector) HeatEntries() int {
	n := 0
	for _, r := range c.recs {
		if c.value(&r.heat) > 0 {
			n++
		}
	}
	return n
}

// MinHeat returns the smallest decayed heat across every key and
// directory cell — never-charged ones included, which read 0 — or 0
// for an empty table. Min is order-independent, so this cannot perturb
// determinism.
func (c *Collector) MinHeat() float64 {
	min, first := 0.0, true
	for _, r := range c.recs {
		if v := c.value(&r.heat); first || v < min {
			min, first = v, false
		}
	}
	for i := range c.heatDir {
		if v := c.value(&c.heatDir[i]); first || v < min {
			min, first = v, false
		}
	}
	return min
}

// EnableTenants gives the heat an n-tenant split.
func (c *Collector) EnableTenants(n int) { c.tenants = n }

// AddTenantHeat folds the key's tenant split to the current heat epoch
// and attributes n accesses to tenant t. A no-op without a split, for
// an out-of-range tenant or for n <= 0, so call sites need no guard.
func (c *Collector) AddTenantHeat(key namespace.FragKey, t, n int) {
	if t < 0 || t >= c.tenants || n <= 0 {
		return
	}
	r := c.rec(key)
	if r.tenant == nil {
		r.tenant, r.tenantEpoch = make([]float64, c.tenants), c.heatEpoch
	}
	if k := c.heatEpoch - r.tenantEpoch; k > 0 {
		p, ok := c.powAt(k)
		if !ok {
			p = 0
		}
		for i := range r.tenant {
			r.tenant[i] *= p
		}
		r.tenantEpoch = c.heatEpoch
	}
	r.tenant[t] += float64(n)
}

// DominantTenant returns the tenant responsible for more than half of
// the key's tenant-attributed heat, or -1 when no tenant dominates.
// Pending decay scales every share equally, so no fold is needed.
func (c *Collector) DominantTenant(key namespace.FragKey) int {
	r := c.recs[key]
	if r == nil {
		return -1
	}
	best, bestV, sum := -1, 0.0, 0.0
	for i, v := range r.tenant {
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
