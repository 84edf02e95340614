package experiment

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Shape of the noisy-neighbor scenario. The aggressor's offered load
// (160 clients x 150 ops/tick) alone is three times the whole cluster's
// service rate (4 ranks x 2000 ops/tick), so without admission control
// victims queue behind the storm no matter how well the balancer
// spreads it.
// The QoS cell caps every tenant at 1300 ops/tick: the three victims
// (8 clients x 150 = 1200 ops/tick each) never touch their caps, while
// the aggressor is cut to a twentieth of its demand, leaving the
// cluster uncongested.
const (
	noisyAggrClients   = 160
	noisyAggrDirs      = 8
	noisyVictimClients = 8
	noisyVictims       = 3
	noisyOpsPerClient  = 24000
	noisyRate          = 1300
	noisyBurst         = 1300
)

// noisyVictimGen builds victim v's generator: the standard Zipf/MDtest/
// ReadStorm mixture, each victim in its own subtree. Shared between the
// isolated baseline (victims are tenants 0..2) and the loaded cells
// (victims are tenants 1..3 behind the aggressor), so the victim work
// is identical in every cell.
func noisyVictimGen(v, off int, scale float64) workload.Generator {
	dir := fmt.Sprintf("/victim%02d", v)
	switch v % 3 {
	case 0:
		return workload.NewZipf(workload.ZipfConfig{
			Dir: dir + "/zipf", ClientOffset: off,
			OpsPerClient: scaled(noisyOpsPerClient, scale)})
	case 1:
		return workload.NewMD(workload.MDConfig{
			Dir: dir + "/md", ClientOffset: off,
			CreatesPerClient: scaled(noisyOpsPerClient, scale)})
	default:
		return workload.NewReadStorm(workload.ReadStormConfig{
			Dir: dir + "/storm", ClientOffset: off, WriteEvery: 50,
			OpsPerClient: scaled(noisyOpsPerClient, scale)})
	}
}

// noisyAggrGen builds the aggressor: four parallel shared-directory
// create storms. One storm would sit on a single rank under the vanilla
// balancer, leaving the other ranks — and most victims — untouched;
// four storms land on every rank, so no placement luck can shield a
// victim. Each storm's offered load still exceeds a single rank's
// capacity on its own.
func noisyAggrGen(off int, scale float64) workload.Generator {
	gens := make([]workload.Generator, noisyAggrDirs)
	per := noisyAggrClients / noisyAggrDirs
	for d := range gens {
		gens[d] = workload.NewMDShared(workload.MDSharedConfig{
			Dir:              fmt.Sprintf("/noisy/dir%d", d),
			ClientOffset:     off + d*per,
			CreatesPerClient: scaled(noisyOpsPerClient, scale)})
	}
	return workload.NewMixed(gens...)
}

// worstVictim is the gate metric: the WORST victim tenant's value —
// isolation must hold for every victim, not on average. Victims are
// tenants 0..2 in the isolated cell and 1..3 behind the aggressor.
func worstVictim(get func(r *run, tenant int) float64) func(*run) float64 {
	return func(r *run) float64 {
		first, worst := 0, 0.0
		if noisyLoaded(r) {
			first = 1
		}
		for v := 0; v < noisyVictims; v++ {
			worst = max(worst, get(r, first+v))
		}
		return worst
	}
}

func noisyLoaded(r *run) bool { return r.key != "isolated" }

// ifLoaded reads an aggressor metric where there is an aggressor.
func ifLoaded(get func(*run) float64, otherwise float64) func(*run) float64 {
	return func(r *run) float64 {
		if !noisyLoaded(r) {
			return otherwise
		}
		return get(r)
	}
}

func aggr50(r *run) float64        { return r.Metrics().TenantJCTQuantile(0, 0.5) }
func aggrThrottled(r *run) float64 { return float64(r.Tenancy().Throttled(0)) }

// The noisy experiment measures tenant isolation under a metadata
// storm. Four cells, each of which must finish: the victims alone (the
// baseline their completion times are judged against), then victims
// plus a 160-client shared-directory create storm under the vanilla
// balancer, under Lunule without QoS, and under Lunule with per-tenant
// token buckets. Balancing alone cannot protect the victims — the
// storm's demand exceeds the whole cluster's capacity, so spreading it
// just saturates every rank — only admission control keeps the victims
// at their isolated completion times.
var expNoisy = entry{
	id: "noisy", title: "Extension: multi-tenant QoS — token-bucket admission isolates victims from a noisy neighbor's metadata storm",
	scenario: &scenario{func(opt Options) []cell {
		// Without QoS tenancy is accounting-only: buckets so large no tenant
		// can ever drain one, which is behavior-identical to running
		// without tenancy (the idle-differential test proves byte equality)
		// but still sizes the per-tenant JCT/latency slots in the recorder.
		on := func(key, name, bal string, loaded bool, rate, burst float64) cell {
			// The victims, behind the aggressor as tenant 0 when loaded.
			var counts []int
			clients := noisyVictims * noisyVictimClients
			if loaded {
				counts = []int{noisyAggrClients}
				clients += noisyAggrClients
			}
			for v := 0; v < noisyVictims; v++ {
				counts = append(counts, noisyVictimClients)
			}
			return cell{labels: []string{name}, key: key, mustFinish: true, bal: bal,
				gen: func() workload.Generator {
					return workload.NewTenants(workload.TenantsConfig{Counts: counts},
						func(t, _, off int) workload.Generator {
							switch {
							case !loaded:
								return noisyVictimGen(t, off, opt.Scale)
							case t == 0:
								return noisyAggrGen(off, opt.Scale)
							}
							return noisyVictimGen(t-1, off, opt.Scale)
						})
				},
				shape: cluster.Config{MDS: 4, Clients: clients},
				attach: func(cfg *cluster.Config) {
					pol := tenant.DefaultPolicy()
					pol.Rate, pol.Burst = rate, burst
					cfg.Tenancy = tenant.MustManager(pol)
				}}
		}
		return []cell{
			on("isolated", "Isolated victims", "Lunule", false, 1e9, 2e9),
			on("vanilla", "Vanilla+storm", "Vanilla", true, 1e9, 2e9),
			on("lunule", "Lunule+storm", "Lunule", true, 1e9, 2e9),
			on("qos", "Lunule+QoS+storm", "Lunule", true, noisyRate, noisyBurst),
		}
	}},
	// The aggressor's two metrics read 0 in the isolated row's table
	// cells and are values only where there is an aggressor.
	cols: []column[*run]{label("cell", 0),
		num("victim p50", ".victim50", fi, worstVictim(func(r *run, t int) float64 { return r.Metrics().TenantJCTQuantile(t, 0.5) })),
		num("victim lat", ".victim_lat", f2, worstVictim(func(r *run, t int) float64 { return r.Metrics().TenantMeanLatency(t) })),
		shown("aggr p50", fi, ifLoaded(aggr50, 0)),
		shown("aggr throttled", fi, ifLoaded(aggrThrottled, 0)),
		shown("ops/sec", f1, meanIOPS), colFinished,
		value(".aggr50", ifLoaded(aggr50, math.NaN())),
		value(".aggr_throttled", ifLoaded(aggrThrottled, math.NaN()))},
	report: func(res *Result, _ Options, _ []*run) error {
		if iso := res.Values["isolated.victim50"]; iso > 0 {
			res.note(fmt.Sprintf("victim slowdown vs isolated p50=%s: vanilla %.2fx, lunule %.2fx, qos %.2fx",
				fi(iso),
				res.Values["vanilla.victim50"]/iso,
				res.Values["lunule.victim50"]/iso,
				res.Values["qos.victim50"]/iso))
		}
		return nil
	},
	notes: []string{
		fmt.Sprintf("aggressor: %d clients hammering %d shared directories — offered load alone (%d ops/tick) exceeds total cluster capacity",
			noisyAggrClients, noisyAggrDirs, noisyAggrClients*150),
		fmt.Sprintf("qos cell: flat per-tenant buckets rate=%d burst=%d ops/tick; victims (%d clients each) never touch their caps",
			noisyRate, noisyBurst, noisyVictimClients),
		"balancing spreads the storm but cannot shrink it; admission control is what protects the victims"},
}
