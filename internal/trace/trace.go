// Package trace implements the access-history bookkeeping the paper's
// "Stats recording" section describes: metadata accesses are broken
// into fixed-size short sequences (cutting windows, one per balancing
// epoch here), and per-subtree counters record how many visits were
// recurrent (temporal locality) versus first visits to never-before-seen
// inodes (spatial locality). The Lunule pattern analyzer turns these
// counters into alpha/beta locality factors and migration indices.
//
// Counters are kept at two granularities:
//
//   - per partition entry (FragKey): the unit migration decisions use;
//   - per directory, propagated up the ancestor chain to the governing
//     subtree root: the finer view the subtree selector needs when it
//     has to split a subtree and pick descendant directories.
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

// IsZero reports whether no activity was recorded.
func (c Counters) IsZero() bool {
	return c == Counters{}
}

// window is one cutting window's worth of counters. Directories are
// numbered densely (Inode.DirNum), so byDir is a slice indexed by that
// number, grown to the highest directory the window has seen; a
// never-touched directory reads as the zero Counters. Subtree entries
// stay in a map, behind a one-slot memo of the last key recorded: a
// rank serves runs of one client's consecutive ops, which mostly share
// their governing entry. A window belongs to one collector, that is to
// one rank, and a run is one goroutine, so nothing here is shared.
type window struct {
	epoch   int64
	byDir   []Counters
	byKey   map[namespace.FragKey]*Counters
	lastKey namespace.FragKey
	last    *Counters // byKey[lastKey]; nil = no memo
}

// Collector records accesses into a ring of cutting windows. Each MDS
// owns one Collector (the paper keeps the history trace per MDS); when
// a subtree migrates, the importer's collector starts cold for it,
// exactly as a real importer would.
type Collector struct {
	history int // number of windows retained and used for classification
	ring    []window
	epoch   int64
}

// NewCollector creates a collector retaining the given number of recent
// cutting windows (the paper's N). history must be >= 1.
func NewCollector(history int) *Collector {
	if history < 1 {
		panic("trace: history must be >= 1")
	}
	ring := make([]window, history+1)
	for i := range ring {
		ring[i] = window{epoch: -1, byKey: make(map[namespace.FragKey]*Counters)}
	}
	// epoch starts at -1 so the first Record (possibly at epoch 0)
	// opens its window.
	return &Collector{history: history, ring: ring, epoch: -1}
}

// History returns the configured window count N.
func (c *Collector) History() int { return c.history }

// Epoch returns the current epoch.
func (c *Collector) Epoch() int64 { return c.epoch }

func (c *Collector) slot(epoch int64) *window {
	return &c.ring[int(epoch%int64(len(c.ring)))]
}

// BeginEpoch opens the cutting window for the given epoch, recycling the
// oldest window in the ring.
func (c *Collector) BeginEpoch(epoch int64) {
	w := c.slot(epoch)
	if w.epoch == epoch {
		return
	}
	w.epoch = epoch
	clear(w.byDir)
	clear(w.byKey)
	w.last = nil
	c.epoch = epoch
}

// add charges delta to the subtree entry and to every directory from
// parent up to and including the entry's root, so any directory inside
// the subtree has selector-usable stats.
func (w *window) add(key namespace.FragKey, parent *namespace.Inode, delta Counters) {
	if w.last == nil || w.lastKey != key {
		ctr := w.byKey[key]
		if ctr == nil {
			ctr = &Counters{}
			w.byKey[key] = ctr
		}
		w.lastKey, w.last = key, ctr
	}
	w.last.Add(delta)
	for d := parent; d != nil; d = d.Parent {
		n := int(d.DirNum())
		if n >= len(w.byDir) {
			w.byDir = append(w.byDir, make([]Counters, n+1-len(w.byDir))...)
		}
		w.byDir[n].Add(delta)
		if d.Ino == key.Dir {
			break
		}
	}
}

// Record classifies one access to in, governed by the subtree entry
// key, and updates the current window. It touches the inode's access
// history (the per-inode boolean epoch queue), so each metadata access
// must be recorded exactly once.
//
// Classification per the paper:
//   - recurrent: the inode was visited in one of the previous N windows
//     (counted once per inode per window);
//   - first visit: the inode had never been accessed before.
func (c *Collector) Record(key namespace.FragKey, in *namespace.Inode, epoch int64) {
	if c.RecordNoVisit(key, in, epoch) {
		in.MarkVisited()
	}
}

// RecordNoVisit is Record with the first-ever-visit MarkVisited side
// effect left to the caller: it returns true when the inode had never
// been accessed before, in which case the caller owes it a
// MarkVisited. Everything recorded here touches only the collector and
// the inode itself.
func (c *Collector) RecordNoVisit(key namespace.FragKey, in *namespace.Inode, epoch int64) (firstEver bool) {
	if epoch != c.epoch {
		c.BeginEpoch(epoch)
	}
	firstThisWindow := !in.Hot.AccessedIn(epoch)
	everSeen := in.Hot.EverAccessed()
	recentBefore := false
	if firstThisWindow && everSeen {
		recentBefore = in.Hot.RecentEpochs(epoch-1, c.history) > 0
	}
	in.Hot.Touch(epoch)

	var delta Counters
	delta.Visits = 1
	if firstThisWindow {
		delta.Distinct = 1
		if recentBefore {
			delta.Recurrent = 1
		}
	}
	if !everSeen {
		delta.FirstVisits = 1
	}

	c.slot(epoch).add(key, in.Parent, delta)
	return !everSeen
}

// RecordFreshRun records n first-ever accesses to freshly created
// inodes under one parent directory in a single pass: every fresh
// inode is by construction a first visit, a distinct visit, and not
// recurrent, so the whole run folds into one counter delta and one
// ancestor-chain walk instead of n map probes each. The caller owes
// each inode its Hot.Touch and MarkVisited.
func (c *Collector) RecordFreshRun(key namespace.FragKey, parent *namespace.Inode, epoch int64, n int64) {
	if n <= 0 {
		return
	}
	if epoch != c.epoch {
		c.BeginEpoch(epoch)
	}
	var delta Counters
	delta.Visits, delta.Distinct, delta.FirstVisits = int(n), int(n), int(n)
	c.slot(epoch).add(key, parent, delta)
}

// sumWindows folds fn over the valid windows among the last n epochs
// ending at epoch.
func (c *Collector) sumWindows(epoch int64, n int, fn func(*window) Counters) Counters {
	if n > c.history {
		n = c.history
	}
	var total Counters
	for i := int64(0); i < int64(n); i++ {
		e := epoch - i
		if e < 0 {
			break
		}
		w := c.slot(e)
		if w.epoch != e {
			continue
		}
		total.Add(fn(w))
	}
	return total
}

// RecentKey returns the summed counters for the subtree entry over the
// last n cutting windows ending at epoch (n is clamped to the history).
func (c *Collector) RecentKey(key namespace.FragKey, epoch int64, n int) Counters {
	return c.sumWindows(epoch, n, func(w *window) Counters {
		if ctr := w.byKey[key]; ctr != nil {
			return *ctr
		}
		return Counters{}
	})
}

// RecentDir returns the summed counters attributed to the directory's
// region over the last n cutting windows ending at epoch.
func (c *Collector) RecentDir(dir *namespace.Inode, epoch int64, n int) Counters {
	num := int(dir.DirNum())
	return c.sumWindows(epoch, n, func(w *window) Counters {
		if num < len(w.byDir) {
			return w.byDir[num]
		}
		return Counters{}
	})
}

// Forget drops all state for the given subtree entry across all
// retained windows. Exporters call it after a subtree is migrated away.
func (c *Collector) Forget(key namespace.FragKey) {
	for i := range c.ring {
		w := &c.ring[i]
		delete(w.byKey, key)
		w.last = nil // may point at the cell just deleted
	}
}
