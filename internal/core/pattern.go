package core

import (
	"repro/internal/namespace"
	"repro/internal/trace"
)

// Analyzer is the workload-aware pattern analyzer: it turns a subtree's
// recent cutting-window counters into the temporal/spatial locality
// factors and the migration index of Equation 4,
//
//	mIndex = alpha*l_t + beta*l_s.
//
// alpha is the recurrent-visit ratio of the recent windows (how much of
// the traffic re-visits known inodes), l_t the recent visit volume.
// beta is the unvisited-inode ratio of the subtree (how much of it has
// never been touched), and l_s the first-visit activity including the
// sibling-correlation credit: first visits in one subtree predict
// visits to its yet-untouched siblings, which is how scan fronts are
// projected forward. The sibling credit is applied as its expectation
// (deterministically) rather than by coin flips, which keeps runs
// reproducible and equals the paper's probabilistic rule in mean.
type Analyzer struct {
	// SiblingProb is the probability mass of the sibling-correlation
	// rule; the sibling-credit ablation zeroes it.
	SiblingProb float64
	// EpochTicks converts window counters into per-second load units.
	EpochTicks int
}

// NewAnalyzer returns the analyzer the evaluation uses, for a cluster
// with the given epoch length.
func NewAnalyzer(epochTicks int) *Analyzer {
	return &Analyzer{SiblingProb: siblingProb, EpochTicks: epochTicks}
}

// Locality is the analyzed state of one subtree.
type Locality struct {
	// Alpha is the temporal-locality impact factor in [0, 1].
	Alpha float64
	// Beta is the spatial-locality impact factor in [0, 1].
	Beta float64
	// Lt is the predicted temporally-driven load (ops/sec).
	Lt float64
	// Ls is the predicted spatially-driven load (ops/sec).
	Ls float64
	// MIndex is Equation 4's migration index (ops/sec units).
	MIndex float64
}

func (a *Analyzer) windowsUsed(epoch int64) float64 {
	n := int64(windows)
	if epoch+1 < n {
		n = epoch + 1
	}
	if n < 1 {
		n = 1
	}
	return float64(n)
}

// scale converts an N-window counter into ops/sec.
func (a *Analyzer) scale(epoch int64) float64 {
	t := a.windowsUsed(epoch) * float64(a.EpochTicks)
	if t <= 0 {
		return 1
	}
	return 1 / t
}

// locality combines a subtree's window counters with its
// sibling-correlation credit (expressed in raw window-counter units).
//
// beta follows the paper's definition — the ratio of accesses to
// never-before-visited inodes over all visits in the recent windows —
// extended so that a subtree known only through sibling credit (an
// untouched subtree next in a scan's path) counts that credit as
// anticipated first-visit traffic: beta = (first + credit) / (visits +
// credit). A pure scan or create stream gives beta ~ 1; a stable hot
// set gives beta ~ 0.
func (a *Analyzer) locality(c trace.Counters, credit float64, epoch int64) Locality {
	var loc Locality
	if c.Distinct > 0 {
		loc.Alpha = float64(c.Recurrent) / float64(c.Distinct)
	}
	first := float64(c.FirstVisits) + credit
	den := float64(c.Visits) + credit
	if den > 0 {
		loc.Beta = first / den
		if loc.Beta > 1 {
			loc.Beta = 1
		}
	}
	s := a.scale(epoch)
	loc.Lt = float64(c.Visits) * s
	loc.Ls = first * s
	loc.MIndex = loc.Alpha*loc.Lt + loc.Beta*loc.Ls
	return loc
}

// siblingCredit computes the sibling-correlation l_s credit for the
// region rooted at directory d (in raw window-counter units). First
// visits inside d's parent region predict first visits to d's own
// still-unvisited inodes: a scan sweeping the parent will eventually
// cover every sibling, so d anticipates the parent's first-visit
// volume in proportion to its share of the parent's unvisited inodes,
// damped by the sibling-correlation probability. This is §3.3's
// sibling rule expressed as its expectation over where the remaining
// scan lands, which is what lets the selector ship not-yet-visited
// namespace ahead of a scan front.
func (a *Analyzer) siblingCredit(col *trace.Collector, epoch int64, d *namespace.Inode) float64 {
	p := d.Parent
	if p == nil {
		return 0
	}
	uSelf, _ := d.UnvisitedBelow()
	if uSelf == 0 {
		return 0
	}
	uParent, _ := p.UnvisitedBelow()
	if uParent <= 0 {
		return 0
	}
	fv := col.RecentDir(p, epoch, windows).FirstVisits
	return a.SiblingProb * float64(fv) * float64(uSelf) / float64(uParent)
}

// ForDir analyzes the region rooted at directory d as observed by the
// given collector (the exporter's).
func (a *Analyzer) ForDir(col *trace.Collector, epoch int64, d *namespace.Inode) Locality {
	c := col.RecentDir(d, epoch, windows)
	return a.locality(c, a.siblingCredit(col, epoch, d), epoch)
}

// ForKey analyzes an existing subtree entry as observed by the given
// collector.
func (a *Analyzer) ForKey(col *trace.Collector, epoch int64, part *namespace.Partition, key namespace.FragKey) Locality {
	c := col.RecentKey(key, epoch, windows)
	credit := 0.0
	dir := part.Tree().Get(key.Dir)
	if dir != nil {
		if key.Frag.IsWhole() {
			credit = a.siblingCredit(col, epoch, dir)
		} else {
			// A fragment anticipates its directory's first-visit
			// volume in proportion to its unvisited share.
			uFrag, _ := part.UnvisitedIn(key)
			uDir, _ := dir.UnvisitedBelow()
			if uFrag > 0 && uDir > 0 {
				fv := col.RecentDir(dir, epoch, windows).FirstVisits
				credit = a.SiblingProb * float64(fv) * float64(uFrag) / float64(uDir)
			}
		}
	}
	return a.locality(c, credit, epoch)
}
