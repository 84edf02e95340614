package balancer

import (
	"math"
	"sort"

	"repro/internal/mds"
	"repro/internal/namespace"
)

// Candidate is a movable unit of namespace: either an existing subtree
// entry or a directory that can be carved into one. Load is the
// policy-specific estimate of the load the unit carries (heat for the
// CephFS policy, migration index for Lunule).
type Candidate struct {
	// Key is set for existing partition entries.
	Key namespace.FragKey
	// Dir is set for carve candidates (directories that are not yet
	// subtree roots). Exactly one of Key/Dir is meaningful; IsEntry
	// discriminates.
	Dir     *namespace.Inode
	IsEntry bool
	Load    float64
}

// RootDir returns the directory inode number the candidate is rooted at.
func (c Candidate) RootDir() namespace.Ino {
	if c.IsEntry {
		return c.Key.Dir
	}
	return c.Dir.Ino
}

// Ranking is what differs between the policies' candidate
// enumerations: how a subtree's load is estimated (accumulated heat for
// the CephFS policy, the migration index for Lunule) and when a heavy
// candidate is broken into its child directories.
type Ranking struct {
	// OfKey estimates the load of an existing subtree entry.
	OfKey func(namespace.FragKey) float64
	// OfDir estimates the load of the subtree rooted at a directory.
	OfDir func(*namespace.Inode) float64
	// RefineAbove is the load above which a candidate that has child
	// directories is replaced by them, so hotspots are broken into
	// movable pieces.
	RefineAbove float64
	// Concentration is the share of such a candidate's load its child
	// directories must capture together for it to be refined; a region
	// whose load is more diffuse than that is kept whole (Lunule
	// fragment-splits it instead). Zero refines regardless.
	Concentration float64
}

// Enumerate lists the migration candidates an exporter can offer,
// heaviest first: its subtree entries, the heaviest refinable one
// replaced by its child directories (see Ranking) until none is left
// or the candidate count reaches limit. Entries in transit
// (mds.Migrator.InTransit) or held in place (View.Held) are skipped.
// The root entry is always expanded into its children, never offered
// whole.
func Enumerate(v View, exporter namespace.MDSID, r Ranking, limit int) []Candidate {
	part := v.Partition()
	tree := part.Tree()

	// childDirs lists, with their loads, the sub-directories of a
	// region that are not already subtree roots of their own.
	childDirs := func(dir *namespace.Inode, frag namespace.Frag) []Candidate {
		var out []Candidate
		for i := 0; i < dir.NumChildren(); i++ {
			if ch := dir.ChildAt(i); ch.IsDir && ch.InFrag(frag) && len(part.EntriesAt(ch.Ino)) == 0 {
				out = append(out, Candidate{Dir: ch, Load: r.OfDir(ch)})
			}
		}
		return out
	}

	// enumCand decorates a candidate with its memoized children.
	// Enumerate never mutates the partition or the tree, so a
	// candidate's child set and the children's loads are fixed for the
	// whole call; without the memo every pick iteration re-scans the
	// children of every unrefinable heavy candidate — O(picks ×
	// candidates × children).
	type enumCand struct {
		Candidate
		kids      []Candidate
		kidLoad   float64
		kidsKnown bool
	}
	var cands []enumCand
	add := func(cs ...Candidate) {
		for _, c := range cs {
			cands = append(cands, enumCand{Candidate: c})
		}
	}

	rootKey := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}
	for _, e := range part.EntriesOf(exporter) {
		if v.Migrator().InTransit(e.Key, exporter) || v.Held(e.Key) {
			continue
		}
		if e.Key == rootKey {
			add(childDirs(tree.Root(), namespace.WholeFrag)...)
			continue
		}
		add(Candidate{Key: e.Key, IsEntry: true, Load: r.OfKey(e.Key)})
	}

	refinable := func(c *enumCand) bool {
		if c.Load <= r.RefineAbove {
			return false
		}
		if !c.kidsKnown {
			c.kidsKnown = true
			dir, frag := c.Dir, namespace.WholeFrag
			if c.IsEntry {
				dir, frag = tree.Get(c.Key.Dir), c.Key.Frag
			}
			if dir != nil {
				c.kids = childDirs(dir, frag)
			}
			for _, k := range c.kids {
				c.kidLoad += k.Load
			}
		}
		return len(c.kids) > 0 && c.kidLoad >= r.Concentration*c.Load
	}
	for len(cands) < limit {
		best := -1
		for i := range cands {
			if refinable(&cands[i]) && (best == -1 || cands[i].Load > cands[best].Load) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		kids := cands[best].kids
		cands = append(cands[:best], cands[best+1:]...)
		add(kids...)
	}

	out := make([]Candidate, len(cands))
	for i := range cands {
		out[i] = cands[i].Candidate
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load > out[j].Load
		}
		return out[i].RootDir() < out[j].RootDir()
	})
	return out
}

// SubmitCandidate carves the candidate if necessary and enqueues its
// export from exporter to importer. It returns false when the
// candidate could not be converted into a migratable entry.
func SubmitCandidate(v View, c Candidate, exporter, importer namespace.MDSID) bool {
	part := v.Partition()
	key := c.Key
	if !c.IsEntry {
		if c.Dir == nil || len(part.EntriesAt(c.Dir.Ino)) > 0 {
			return false
		}
		key = part.Carve(c.Dir).Key
	}
	if e, ok := part.EntryAt(key); !ok || e.Auth != exporter {
		return false
	}
	v.Migrator().Submit(key, exporter, importer, c.Load, v.Tick())
	return true
}

// heatRanking ranks subtrees by the heat the exporter accumulated on
// them, refining anything hotter than refineAbove.
func heatRanking(s *mds.Server, refineAbove float64) Ranking {
	return Ranking{
		OfKey:       s.HeatOfKey,
		OfDir:       s.HeatOfDir,
		RefineAbove: refineAbove,
	}
}

// HeatSelect picks the candidates whose accumulated heat covers the
// given fraction of the exporter's total candidate heat, hottest first.
// Expressing the target as a fraction of the exporter's own heat keeps
// the amount and the per-subtree values in the same (decayed-counter)
// units, as in CephFS, where the balancer's load metric and the subtree
// popularity are the same counter.
func HeatSelect(v View, exporter namespace.MDSID, fraction float64, limit int) []Candidate {
	if fraction <= 0 {
		return nil
	}
	if fraction > 1 {
		fraction = 1
	}
	// First pass: coarse candidates to size the exporter's total heat.
	r := heatRanking(v.Server(exporter), math.Inf(1))
	total := 0.0
	for _, c := range Enumerate(v, exporter, r, limit) {
		total += c.Load
	}
	target := fraction * total
	if target <= 0 {
		return nil
	}
	// Second pass: refine anything bigger than the target into movable
	// pieces, then fill hottest-first.
	r.RefineAbove = target
	cands := Enumerate(v, exporter, r, limit)
	return GreedyFill(cands, target)
}

// GreedyFill picks candidates in descending-load order until their
// loads sum to at least target (overshooting by at most the final
// pick), mirroring how the CephFS built-in balancer fills its export
// amount from the hottest dirfrags down.
func GreedyFill(cands []Candidate, target float64) []Candidate {
	var out []Candidate
	sum := 0.0
	for _, c := range cands {
		if sum >= target {
			break
		}
		if c.Load <= 0 {
			break
		}
		out = append(out, c)
		sum += c.Load
	}
	return out
}
