package core

import (
	"repro/internal/balancer"
	"repro/internal/namespace"
	"repro/internal/obs"
)

// Config is what distinguishes the Lunule variants the evaluation
// runs; the paper's parameters are the constants in core.go. The zero
// Config is Lunule-Light with nothing ablated.
type Config struct {
	// WorkloadAware toggles the workload-aware subtree selection; with
	// it off the policy is the paper's Lunule-Light variant, which
	// keeps the IF model and Algorithm 1 but selects subtrees by the
	// default heat ranking.
	WorkloadAware bool

	// Ablation switches (all false in the paper's system). They exist
	// so the contribution of each design choice can be measured:
	//
	// DisableUrgency replaces Equation 2's logistic with U = 1, so the
	// trigger fires on any dispersion regardless of absolute load (no
	// benign-imbalance tolerance).
	DisableUrgency bool
	// DisableSiblingCredit removes the sibling-correlation term from
	// l_s, so unvisited subtrees carry no anticipated load.
	DisableSiblingCredit bool
	// DisableImporterGate drops Algorithm 1's future-load (fld) test:
	// every below-average MDS imports its full gap.
	DisableImporterGate bool
}

// Lunule is the paper's balancer: IF-model-driven triggering,
// Algorithm 1 role/amount planning, and workload-aware subtree
// selection.
type Lunule struct {
	cfg Config
	bus *obs.Bus

	// rebalances counts how many epochs actually triggered migration.
	rebalances int
}

// New creates the Lunule variant cfg describes.
func New(cfg Config) *Lunule { return &Lunule{cfg: cfg} }

// SetBus implements obs.BusCarrier: trigger decisions (with their
// IF/U/CoV inputs), plan pairs, and subtree picks are traced through
// the given bus.
func (b *Lunule) SetBus(bus *obs.Bus) { b.bus = bus }

// NewDefault creates the paper's Lunule.
func NewDefault() *Lunule { return New(Config{WorkloadAware: true}) }

// NewLight creates the Lunule-Light variant (workload-aware selection
// off).
func NewLight() *Lunule { return New(Config{}) }

// Name implements balancer.Balancer.
func (b *Lunule) Name() string {
	if b.cfg.WorkloadAware {
		return "Lunule"
	}
	return "Lunule-Light"
}

// Rebalances returns how many epochs triggered migration so far.
func (b *Lunule) Rebalances() int { return b.rebalances }

// housekeep tidies the partition once per epoch, as the CephFS MDS
// does between balancing rounds: fragment entries whose sibling half
// ended up on the same MDS merge back into their parent fragment, and
// whole-subtree entries whose enclosing subtree has the same authority
// are absorbed. Fewer entries mean shorter authority chains and less
// client-cache pressure; migrations in flight are left alone.
func (b *Lunule) housekeep(v balancer.View) {
	part := v.Partition()
	mig := v.Migrator()
	for _, e := range part.Entries() {
		// Held entries are deliberate carve-outs: absorbing a leased
		// one would tear down its replication group each epoch, and
		// merging a throttled tenant's would blend its heat into a
		// larger entry and erase the attribution the hold keys on. An
		// entry whose authority is down is orphaned awaiting failover
		// takeover: leave it for the recovery policy.
		if mig.InTransit(e.Key, e.Auth) || v.Held(e.Key) || !v.Up(e.Auth) {
			continue
		}
		if e.Key.Frag.IsWhole() {
			// The root entry has no enclosing authority and stays.
			if enc, ok := part.EnclosingAuth(e.Key); ok && enc == e.Auth {
				part.Absorb(e.Key)
			}
			continue
		}
		sibKey := namespace.FragKey{Dir: e.Key.Dir, Frag: e.Key.Frag.Sibling()}
		if mig.InTransit(sibKey, e.Auth) {
			continue
		}
		if sib, ok := part.EntryAt(sibKey); ok && sib.Auth == e.Auth {
			part.MergeWithSibling(e.Key)
		}
	}
}

// Rebalance implements balancer.Balancer.
func (b *Lunule) Rebalance(v balancer.View) {
	b.housekeep(v)
	// The plan runs over importable ranks only: a down rank neither
	// reports an Imbalance State nor may be chosen as an endpoint, and
	// a draining rank is already being emptied by the elastic drain
	// pump — planning around it would re-import into a rank that is
	// leaving. The compact participant-index arrays are mapped back to
	// real ranks afterwards.
	live := balancer.ImportableRanks(v)
	if len(live) < 2 {
		return
	}
	loads := make([]float64, len(live))
	histories := make([][]float64, len(live))
	for i, id := range live {
		s := v.Server(id)
		loads[i], histories[i] = s.CurrentLoad(), s.LoadHistory()
	}
	res := IFModel{}.Compute(loads, v.Capacity())
	if b.cfg.DisableUrgency {
		// Ablation: raw normalized CoV, no benign-imbalance tolerance.
		res.U = 1
		res.IF = res.NormCoV
	}
	fired := res.IF >= threshold
	if b.bus.Enabled(obs.EvTrigger) {
		b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvTrigger, Fields: obs.F{
			"balancer": b.Name(), "if": res.IF, "cov": res.CoV,
			"norm_cov": res.NormCoV, "u": res.U,
			"threshold": threshold, "fired": fired, "live": len(live),
		}})
	}
	if !fired {
		return // benign (or no) imbalance
	}

	plan := Plan(loads, histories, PlannerConfig{
		Cap:               capFraction * v.Capacity(),
		DisableFutureLoad: b.cfg.DisableImporterGate,
	})
	if len(plan) == 0 {
		return
	}
	for i := range plan {
		plan[i].From = live[plan[i].From]
		plan[i].To = live[plan[i].To]
	}
	b.rebalances++
	if b.bus.Enabled(obs.EvPlan) {
		for _, d := range plan {
			b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvPlan, Fields: obs.F{
				"from": int(d.From), "to": int(d.To), "amount": d.Amount,
			}})
		}
	}

	an := NewAnalyzer(v.EpochTicks())
	if b.cfg.DisableSiblingCredit {
		an.SiblingProb = 0
	}
	// Plan emits its decisions grouped by exporter, in exporter order.
	for _, d := range plan {
		b.execute(v, an, d)
	}
}

// execute realizes one decision with the workload-aware selector's
// picks or, for Lunule-Light, with the default heat-ranked selection,
// still bounded by the planned amount relative to the exporter's load.
func (b *Lunule) execute(v balancer.View, an *Analyzer, d Decision) {
	var picks []balancer.Candidate
	if b.cfg.WorkloadAware {
		picks = Select(v, an, d.From, d.Amount)
	} else if load := v.Server(d.From).CurrentLoad(); load > 0 {
		picks = balancer.HeatSelect(v, d.From, d.Amount/load, candidateLimit)
	}
	for _, c := range picks {
		b.tracePick(v, c, d)
		balancer.SubmitCandidate(v, c, d.From, d.To)
	}
}

// tracePick emits one selector pick: the subtree the policy chose to
// move for the given plan decision.
func (b *Lunule) tracePick(v balancer.View, c balancer.Candidate, d Decision) {
	if !b.bus.Enabled(obs.EvSelect) {
		return
	}
	f := obs.F{
		"from": int(d.From), "to": int(d.To),
		"dir": uint64(c.RootDir()), "load": c.Load, "entry": c.IsEntry,
	}
	if c.IsEntry {
		f["frag"] = c.Key.Frag.String()
	}
	b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvSelect, Fields: f})
}
