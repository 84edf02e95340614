package balancer

import (
	"repro/internal/namespace"
	"repro/internal/obs"
)

// This file is a Mantle-style programmable balancing framework
// (Sevilla et al., SC '15). The paper's GreedySpill baseline is, in the
// original evaluation, a Lua policy injected through Mantle; here
// policies are Go closures with the same three-phase structure:
//
//	when(env)            -> should this MDS migrate now?
//	howMuch(env)         -> how much load should it shed?
//	where(env, amount)   -> how is that amount spread over the peers?
//
// The framework adapts any such policy to the Balancer interface, using
// the stock heat-ranked subtree selection to realize the chosen amounts
// — exactly the division of labour Mantle has in CephFS, and the reason
// the Lunule paper argues Mantle's API is not enough: the
// subtree-selection step stays fixed.

// Env is the metric environment a policy callback sees, patterned
// after Mantle's Lua environment: the evaluating MDS, current per-MDS
// loads, short load histories, and cluster constants. The MDSs a policy
// sees are the participants — the importable ranks (ImportableRanks),
// in rank order — so a policy can neither be evaluated on, nor direct
// load at, a rank that is down or being drained.
type Env struct {
	// WhoAmI is the evaluating MDS's index among the participants.
	WhoAmI int
	// Loads holds each participant's last-epoch load (ops/sec).
	Loads []float64
	// History holds each participant's recent per-epoch loads (oldest
	// first).
	History [][]float64
	// Total is the cluster-wide load.
	Total float64
	// Capacity is the single-MDS capacity C.
	Capacity float64
	// Epoch is the balancing round number.
	Epoch int64
}

// MyLoad returns the evaluating MDS's load.
func (e Env) MyLoad() float64 {
	if e.WhoAmI < 0 || e.WhoAmI >= len(e.Loads) {
		return 0
	}
	return e.Loads[e.WhoAmI]
}

// Mean returns the cluster's average load.
func (e Env) Mean() float64 {
	if len(e.Loads) == 0 {
		return 0
	}
	return e.Total / float64(len(e.Loads))
}

// Policy is a Mantle-style three-callback balancing policy.
type Policy struct {
	// PolicyName labels the policy in experiment output.
	PolicyName string
	// When decides whether the evaluating MDS migrates this epoch.
	When func(Env) bool
	// HowMuch returns the amount of load (ops/sec) to shed.
	HowMuch func(Env) float64
	// Where spreads the amount over the cluster: the returned slice
	// holds the load directed at each participant (the evaluator's own
	// slot is ignored). A nil return cancels the migration.
	Where func(Env, float64) []float64
}

// mantleCandidateLimit bounds the adaptor's candidate enumeration.
const mantleCandidateLimit = 64

// Mantle adapts a Policy to Balancer.
type Mantle struct {
	name   string
	policy Policy
	bus    *obs.Bus
}

// NewMantle wraps the policy. Policies with missing callbacks are
// treated conservatively (no migration).
func NewMantle(p Policy) *Mantle {
	name := "Mantle"
	if p.PolicyName != "" {
		name += ":" + p.PolicyName
	}
	return &Mantle{name: name, policy: p}
}

// NewGreedySpill returns the paper's GreedySpill baseline: the
// GreedySpill policy run through the Mantle adaptor, as in the paper's
// evaluation, under the name the figures use.
func NewGreedySpill() *Mantle {
	return &Mantle{name: "GreedySpill", policy: GreedySpill()}
}

// Name implements Balancer.
func (b *Mantle) Name() string { return b.name }

// SetBus implements obs.BusCarrier.
func (b *Mantle) SetBus(bus *obs.Bus) { b.bus = bus }

// Rebalance implements Balancer: it evaluates the policy on every
// participant (as Mantle does decentralized) and converts each verdict
// into heat-selected subtree exports.
func (b *Mantle) Rebalance(v View) {
	if b.policy.When == nil || b.policy.HowMuch == nil || b.policy.Where == nil {
		return
	}
	live := ImportableRanks(v)
	env := Env{
		Loads:    make([]float64, len(live)),
		History:  make([][]float64, len(live)),
		Capacity: v.Capacity(),
		Epoch:    v.Epoch(),
	}
	for i, id := range live {
		s := v.Server(id)
		env.Loads[i], env.History[i] = s.CurrentLoad(), s.LoadHistory()
		env.Total += env.Loads[i]
	}
	for i, ex := range live {
		env.WhoAmI = i
		if !b.policy.When(env) {
			continue
		}
		amount := b.policy.HowMuch(env)
		if amount <= 0 || env.Loads[i] <= 0 {
			continue
		}
		targets := b.policy.Where(env, amount)
		if targets == nil {
			continue
		}
		if b.bus.Enabled(obs.EvTrigger) {
			b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvTrigger, Fields: obs.F{
				"balancer": b.name, "from": int(ex), "amount": amount,
				"load": env.Loads[i], "fired": true,
			}})
		}
		b.export(v, live, i, env.Loads[i], targets)
	}
}

// export realizes one exporter's target vector (both indexed by
// participant) with heat-ranked subtree selection, splitting the picks
// across the targets proportionally to their requested shares.
func (b *Mantle) export(v View, live []namespace.MDSID, ex int, load float64, targets []float64) {
	if len(targets) > len(live) {
		targets = targets[:len(live)]
	}
	want := 0.0
	for j, t := range targets {
		if j == ex || t <= 0 {
			continue
		}
		want += t
	}
	if want <= 0 {
		return
	}
	picked := HeatSelect(v, live[ex], want/load, mantleCandidateLimit)
	if len(picked) == 0 {
		return
	}
	// Assign picks round-robin over the positive targets, weighted by
	// repeating each target in proportion to its share.
	var order []namespace.MDSID
	for j, t := range targets {
		if j == ex || t <= 0 {
			continue
		}
		reps := int(t/want*float64(len(picked)) + 0.5)
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			order = append(order, live[j])
		}
	}
	for k, c := range picked {
		SubmitCandidate(v, c, live[ex], order[k%len(order)])
	}
}

// Built-in policies, mirroring the case studies of the Mantle paper.

// idleLoad is the load (ops/sec) at or below which GreedySpill counts
// an MDS as idle.
const idleLoad = 1

// GreedySpill is the GIGA+-derived policy the paper runs through
// Mantle: when my neighbour (the next participant, wrapping) is idle
// and I have load, send half of it there. It uses only local
// information — no global view, no urgency — which is why the paper
// measures it as the worst balancer (IF close to 1 on most workloads).
func GreedySpill() Policy {
	return Policy{
		PolicyName: "GreedySpill",
		When: func(e Env) bool {
			n := len(e.Loads)
			if n < 2 {
				return false
			}
			neighbour := (e.WhoAmI + 1) % n
			return e.MyLoad() > idleLoad && e.Loads[neighbour] <= idleLoad
		},
		HowMuch: func(e Env) float64 { return e.MyLoad() / 2 },
		Where: func(e Env, amount float64) []float64 {
			out := make([]float64, len(e.Loads))
			out[(e.WhoAmI+1)%len(e.Loads)] = amount
			return out
		},
	}
}

// FillHeaviest sheds everything above the cluster mean to the single
// emptiest MDS (the "greedy water-filling" shape).
func FillHeaviest(slack float64) Policy {
	return Policy{
		PolicyName: "FillHeaviest",
		When: func(e Env) bool {
			return e.MyLoad() > e.Mean()*(1+slack)
		},
		HowMuch: func(e Env) float64 { return e.MyLoad() - e.Mean() },
		Where: func(e Env, amount float64) []float64 {
			out := make([]float64, len(e.Loads))
			min := 0
			for j, l := range e.Loads {
				if l < e.Loads[min] {
					min = j
				}
			}
			if min == e.WhoAmI {
				return nil
			}
			out[min] = amount
			return out
		},
	}
}

// SpreadEven sheds the above-mean excess across every below-mean MDS
// in proportion to its headroom (the textbook proportional policy).
func SpreadEven(slack float64) Policy {
	return Policy{
		PolicyName: "SpreadEven",
		When: func(e Env) bool {
			return e.MyLoad() > e.Mean()*(1+slack)
		},
		HowMuch: func(e Env) float64 { return e.MyLoad() - e.Mean() },
		Where: func(e Env, amount float64) []float64 {
			mean := e.Mean()
			out := make([]float64, len(e.Loads))
			room := 0.0
			for j, l := range e.Loads {
				if j != e.WhoAmI && l < mean {
					out[j] = mean - l
					room += mean - l
				}
			}
			if room <= 0 {
				return nil
			}
			for j := range out {
				out[j] = out[j] / room * amount
			}
			return out
		},
	}
}
