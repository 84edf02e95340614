package balancer

import (
	"repro/internal/namespace"
	"repro/internal/obs"
)

// Vanilla approximates the CephFS built-in metadata load balancer and
// deliberately keeps its three inefficiencies the paper identifies:
//
//  1. the trigger compares each MDS's load only against the cluster
//     average with a fixed fudge factor, so it both misses harmful gaps
//     between heavy and light servers and fires on benign imbalance;
//  2. the export amount is the raw load-above-average with no
//     importer-side cap and no account of migration lag, which
//     over-migrates and causes ping-pong;
//  3. candidates are selected by accumulated, decayed popularity
//     ("heat"), which tracks where load HAS been, not where it will
//     be — invalid for scan-type workloads that never revisit files.
type Vanilla struct {
	bus *obs.Bus
}

const (
	// vanillaMinOffload is the fudge factor: an MDS exports only when
	// its load exceeds avg*(1+vanillaMinOffload). CephFS uses ~0.1.
	vanillaMinOffload = 0.1
	// vanillaCandidateLimit bounds candidate enumeration.
	vanillaCandidateLimit = 128
)

// NewVanilla returns the CephFS built-in policy.
func NewVanilla() *Vanilla { return &Vanilla{} }

// Name implements Balancer.
func (b *Vanilla) Name() string { return "CephFS-Vanilla" }

// SetBus implements obs.BusCarrier.
func (b *Vanilla) SetBus(bus *obs.Bus) { b.bus = bus }

// Rebalance implements Balancer.
func (b *Vanilla) Rebalance(v View) {
	loads := SmoothedLoads(v, 2)
	// Plan over importable ranks only: down ranks serve nothing, and a
	// draining rank is being emptied by the drain pump — it neither
	// exports through the balancer nor accepts imports.
	live := ImportableRanks(v)
	if len(live) < 2 {
		return
	}
	avg := 0.0
	for _, id := range live {
		avg += loads[id]
	}
	avg /= float64(len(live))
	exporting := 0
	for _, id := range live {
		if loads[id] > avg*(1+vanillaMinOffload) {
			exporting++
		}
	}
	if b.bus.Enabled(obs.EvTrigger) {
		b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvTrigger, Fields: obs.F{
			"balancer": b.Name(), "avg": avg, "live": len(live),
			"fired": exporting > 0 && avg > 0,
		}})
	}
	if avg <= 0 {
		return
	}

	// Importers: every live rank below average, in ascending-load
	// order. Down ranks must never import.
	type imp struct {
		id   namespace.MDSID
		room float64
	}
	var importers []imp
	for _, id := range live {
		if l := loads[id]; l < avg {
			importers = append(importers, imp{id, avg - l})
		}
	}
	// Ascending by load means descending by room; CephFS fills the
	// emptiest peer first.
	for i := 0; i < len(importers); i++ {
		for j := i + 1; j < len(importers); j++ {
			if importers[j].room > importers[i].room {
				importers[i], importers[j] = importers[j], importers[i]
			}
		}
	}

	for _, ex := range live {
		l := loads[ex]
		if l <= avg*(1+vanillaMinOffload) {
			continue
		}
		// Raw load-above-average, uncapped: over-migration by design.
		fraction := (l - avg) / l
		picked := HeatSelect(v, ex, fraction, vanillaCandidateLimit)
		// Spread the picks across importers in room order.
		for k, c := range picked {
			if len(importers) == 0 {
				break
			}
			to := importers[k%len(importers)].id
			if to == ex {
				continue
			}
			SubmitCandidate(v, c, ex, to)
		}
	}
}
