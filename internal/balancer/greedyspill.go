package balancer

import (
	"repro/internal/obs"
)

// idleLoad is the load (ops/sec) at or below which GreedySpill counts
// an MDS as idle.
const idleLoad = 1

// GreedySpill is the paper's GIGA+-derived baseline (run through
// Mantle, Sevilla et al. SC '15, in the paper's evaluation): when my
// neighbour — the next importable rank, wrapping — is idle and I have
// load, send half of it there. It uses only local information, no
// global view and no urgency, which is why the paper measures it as the
// worst balancer (IF close to 1 on most workloads).
type GreedySpill struct {
	bus *obs.Bus
}

// NewGreedySpill returns the GreedySpill baseline.
func NewGreedySpill() *GreedySpill { return &GreedySpill{} }

// Name implements Balancer.
func (b *GreedySpill) Name() string { return "GreedySpill" }

// SetBus implements obs.BusCarrier.
func (b *GreedySpill) SetBus(bus *obs.Bus) { b.bus = bus }

// Rebalance implements Balancer: every importable rank decides on the
// epoch's loads alone, and a spilling rank ships its hottest subtrees,
// half of its load, to its ring neighbour. Down and draining ranks
// neither spill nor receive (a draining rank's exports belong to the
// drain pump).
func (b *GreedySpill) Rebalance(v View) {
	live := ImportableRanks(v)
	if len(live) < 2 {
		return
	}
	loads := Loads(v)
	for i, ex := range live {
		next := live[(i+1)%len(live)]
		load := loads[ex]
		if !(load > idleLoad && loads[next] <= idleLoad) {
			continue
		}
		amount := load / 2
		if b.bus.Enabled(obs.EvTrigger) {
			f := obs.AcquireF()
			f["balancer"], f["from"] = b.Name(), int(ex)
			f["amount"], f["load"] = amount, load
			f["fired"] = true
			b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvTrigger, Fields: f})
		}
		for _, c := range HeatSelect(v, ex, amount/load, 64) {
			SubmitCandidate(v, c, ex, next)
		}
	}
}
