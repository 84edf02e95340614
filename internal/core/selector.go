package core

import (
	"math"

	"repro/internal/balancer"
	"repro/internal/namespace"
)

// Select implements the paper's subtree selection (§3.3/§4.1): given
// an exporter and a migration amount, it searches the exporter's
// namespace through three paths:
//
//  1. a single subtree whose migration index is within the tolerance
//     (10%) of the amount;
//  2. an over-large subtree split down to size — into descendant
//     directories when the load concentrates in them, or by dirfrag
//     splitting when the load (or the anticipated spatial load) is
//     spread across the subtree itself;
//  3. a minimal set of subtrees whose migration indices together
//     roughly meet the demand.
//
// Candidate enumeration (balancer.Enumerate, ranked by migration
// index) descends into a subtree's child directories only when those
// children actually capture the subtree's migration index; a region
// whose predicted load is diffuse (a scan spreading over hundreds of
// directories) is kept whole so that path 2 can carve a hash fragment
// of it — which ships a representative slice of the not-yet-visited
// namespace, the behaviour that makes Lunule effective on scan
// workloads.
//
// It returns the candidates to export so that their total migration
// index approximates amount (ops/sec). The analyzer must belong to the
// exporter (its collector classifies the exporter's recent traffic).
//
// A saturated exporter serves — and therefore observes — only a
// capacity-clipped slice of its true demand, so the amount (computed
// from served loads) is first converted into a fraction of the
// exporter's served load and then applied to the total enumerated
// migration index; this ships the right proportion of the demand
// rather than 'amount' worth of under-measured subtrees.
func Select(v balancer.View, an *Analyzer, exporter namespace.MDSID, amount float64) []balancer.Candidate {
	if amount <= 0 {
		return nil
	}
	col, part, epoch := v.Server(exporter).Collector(), v.Partition(), v.Epoch()
	keyLoad := func(k namespace.FragKey) float64 { return an.ForKey(col, epoch, part, k).MIndex }
	cands := balancer.Enumerate(v, exporter, balancer.Ranking{
		OfKey:         keyLoad,
		OfDir:         func(d *namespace.Inode) float64 { return an.ForDir(col, epoch, d).MIndex },
		RefineAbove:   amount * (1 + tolerance),
		Concentration: concentrationMin,
	}, candidateLimit)
	if len(cands) == 0 {
		return nil
	}
	if served := v.Server(exporter).CurrentLoad(); served > 0 {
		frac := amount / served
		if frac > 1 {
			frac = 1
		}
		total := 0.0
		for _, c := range cands {
			total += c.Load
		}
		amount = frac * total
		if amount <= 0 {
			return nil
		}
	}
	tol := tolerance * amount

	// Path 1: one subtree that matches the amount within tolerance.
	bestIdx, bestDiff := -1, tol+1
	for i, c := range cands {
		diff := c.Load - amount
		if diff < 0 {
			diff = -diff
		}
		if diff <= tol && diff < bestDiff {
			bestIdx, bestDiff = i, diff
		}
	}
	if bestIdx >= 0 {
		return []balancer.Candidate{cands[bestIdx]}
	}

	// Path 2: the smallest over-large candidate, fragment-split toward
	// the amount. (Candidates whose load concentrates in child dirs
	// were already refined during enumeration, so an over-large
	// candidate here is split by hash fragments.)
	overIdx := -1
	for i, c := range cands {
		if c.Load > amount*(1+tolerance) {
			if overIdx == -1 || c.Load < cands[overIdx].Load {
				overIdx = i
			}
		}
	}
	if overIdx >= 0 {
		if c, ok := fragSplit(part, keyLoad, cands[overIdx], amount); ok {
			return []balancer.Candidate{c}
		}
	}

	// Path 3: a minimal set whose indices sum toward the amount. Stop
	// at subtrees too small to matter: shipping dust would freeze many
	// subtrees while moving no load.
	var out []balancer.Candidate
	remaining := amount
	for _, c := range cands {
		if c.Load < amount*dustFraction || remaining <= tol {
			break
		}
		if c.Load > remaining*(1+tolerance) {
			continue
		}
		out = append(out, c)
		remaining -= c.Load
		if len(out) >= maxPicks {
			break
		}
	}
	return out
}

// fragSplit converts the candidate into a partition entry and splits
// its directory fragment repeatedly until one side's estimated
// migration index is close to amount, returning that side. Each half's
// index is estimated from the child directories and files it covers
// (their own indices plus their unvisited share), so a hash slice of a
// scan region carries a representative share of both the live front
// and the not-yet-visited namespace.
func fragSplit(part *namespace.Partition, keyLoad func(namespace.FragKey) float64, c balancer.Candidate, amount float64) (balancer.Candidate, bool) {
	tree := part.Tree()

	key := c.Key
	if !c.IsEntry {
		if c.Dir == nil || len(part.EntriesAt(c.Dir.Ino)) > 0 {
			return balancer.Candidate{}, false
		}
		key = part.Carve(c.Dir).Key
	}
	load := c.Load
	dir := tree.Get(key.Dir)
	if dir == nil {
		return balancer.Candidate{}, false
	}

	for i := 0; i < maxFragSplits && load > amount*(1+tolerance); i++ {
		n := 0 // children in the fragment, counted up to the two a split needs
		for j := 0; j < dir.NumChildren() && n < 2; j++ {
			if dir.ChildAt(j).InFrag(key.Frag) {
				n++
			}
		}
		if n < 2 {
			break
		}
		left, right, ok := part.SplitEntry(key)
		if !ok {
			break
		}
		ll := keyLoad(left.Key)
		lr := keyLoad(right.Key)
		if ll+lr > 0 {
			// Re-apportion the parent's estimate by the halves' relative
			// indices (absolute re-evaluation loses the parent context).
			scale := load / (ll + lr)
			ll *= scale
			lr *= scale
		} else {
			ll, lr = load/2, load/2
		}
		if math.Abs(ll-amount) <= math.Abs(lr-amount) {
			key, load = left.Key, ll
		} else {
			key, load = right.Key, lr
		}
	}
	return balancer.Candidate{Key: key, IsEntry: true, Load: load}, true
}
