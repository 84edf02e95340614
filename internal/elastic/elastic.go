// Package elastic is the cluster autoscaler policy: it observes the
// per-epoch utilization and imbalance of the MDS cluster and decides
// when to add ranks (the whole cluster is saturating) or retire one
// (the cluster idles). The controller is pure decision logic — it
// never touches cluster state itself; the cluster applies ScaleUp
// decisions via AddMDS and ScaleDown decisions via the graceful drain
// path (rank -> Draining -> bulk export -> Decommissioned).
//
// The policy is deliberately conservative, in the spirit of the
// paper's benign-imbalance tolerance: hysteresis between the up and
// down thresholds, a cooldown between consecutive decisions, a warmup
// before the first one, and never more than one drain in flight. All
// decisions are deterministic functions of the observed snapshots, so
// an elastic run stays byte-identical across same-seed replays.
package elastic

import "fmt"

// The controller's fixed thresholds and guards. No command, experiment
// or benchmark workload varies them.
const (
	// scaleUpUtil triggers growth when utilization reaches it.
	scaleUpUtil float64 = 0.75
	// scaleDownUtil triggers a drain when utilization falls below it.
	// It sits well under scaleUpUtil: the gap is the hysteresis band
	// that stops the rank count from oscillating around one threshold.
	scaleDownUtil float64 = 0.35
	// cooldownEpochs is the minimum number of epochs between two
	// consecutive scale decisions (migrations from the last move must
	// land before the signal is trusted again).
	cooldownEpochs int64 = 2
	// stepUp is how many ranks one ScaleUp adds (clamped to MaxRanks).
	stepUp int = 2
	// warmupEpochs suppresses decisions at the start of the run, while
	// load histories are still filling.
	warmupEpochs int64 = 2
	// stepDown is how many ranks one ScaleDown drains: ranks retire one
	// at a time.
	stepDown int = 1
)

// Action is what the controller wants the cluster to do this epoch.
type Action int

// Controller actions.
const (
	// ScaleNone: utilization is inside the [down, up) band (or a
	// guard — warmup, cooldown, in-flight drain, rank bounds — vetoed
	// the move).
	ScaleNone Action = iota
	// ScaleUp: add Delta ranks now.
	ScaleUp
	// ScaleDown: start a graceful drain of one rank.
	ScaleDown
)

// String renders the action for events and test failures.
func (a Action) String() string {
	switch a {
	case ScaleUp:
		return "scale_up"
	case ScaleDown:
		return "scale_down"
	default:
		return "none"
	}
}

// Policy parameterizes the controller.
type Policy struct {
	// MinRanks is the floor the cluster never drains below.
	MinRanks int
	// MaxRanks is the ceiling the cluster never grows above.
	MaxRanks int
}

// DefaultPolicy returns the policy used by the elastic experiment and
// the -elastic CLI default: 4..8 ranks.
func DefaultPolicy() Policy {
	return Policy{MinRanks: 4, MaxRanks: 8}
}

// Validate rejects self-contradictory policies.
func (p Policy) Validate() error {
	if p.MinRanks < 1 {
		return fmt.Errorf("elastic: MinRanks %d < 1", p.MinRanks)
	}
	if p.MaxRanks < p.MinRanks {
		return fmt.Errorf("elastic: MaxRanks %d < MinRanks %d", p.MaxRanks, p.MinRanks)
	}
	return nil
}

// Snapshot is one epoch's observation of the cluster, built by
// Cluster.endEpoch.
type Snapshot struct {
	// Epoch is the index of the epoch that just closed.
	Epoch int64
	// ActiveRanks counts ranks serving and accepting imports.
	ActiveRanks int
	// DrainingRanks counts ranks still serving but being emptied.
	DrainingRanks int
	// Load is the aggregate ops/sec over every serving rank, draining
	// ones included: their load lands on the survivors once the drain
	// completes, so it belongs in the demand estimate.
	Load float64
	// Capacity is one rank's ops/sec ceiling (the paper's C).
	Capacity float64
	// MaxTenantDebt is the worst per-tenant SLO debt of the closed
	// epoch — the fraction of a tenant's within-quota demand the rank
	// pools could not serve — already gated by the tenancy layer's debt
	// threshold (0 when tenancy is off or no tenant reached the
	// threshold). Nonzero means some
	// tenant is starved despite being inside its quota, which is a
	// capacity problem, so it triggers scale-up like saturation does.
	MaxTenantDebt float64
}

// Util returns the demand estimate the thresholds compare against:
// aggregate load over the capacity of the ranks that will remain once
// in-flight drains finish. Draining capacity is excluded from the
// denominator — it is already leaving.
func (s Snapshot) Util() float64 {
	if s.ActiveRanks <= 0 || s.Capacity <= 0 {
		return 0
	}
	return s.Load / (float64(s.ActiveRanks) * s.Capacity)
}

// Decision is the controller's verdict for one epoch.
type Decision struct {
	Action Action
	// Delta is how many ranks to add or drain (0 for ScaleNone, 1 for
	// ScaleDown).
	Delta int
	// Reason is a short stable token for traces and tests:
	// "saturated", "idle", or for ScaleNone the guard that held
	// ("warmup", "cooldown", "draining", "steady", "at_max", "at_min").
	Reason string
	// Util is the utilization the decision was made on.
	Util float64
}

// Controller applies a Policy to a stream of per-epoch snapshots.
type Controller struct {
	policy Policy

	observed       int64 // snapshots seen (warmup basis)
	lastScaleEpoch int64 // epoch of the most recent non-None decision
	scaled         bool  // whether any decision has fired yet

	scaleUps int64
}

// NewController builds a controller; the policy must validate.
func NewController(p Policy) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Controller{policy: p}, nil
}

// MustController is NewController for callers with static policies.
func MustController(p Policy) *Controller {
	c, err := NewController(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Policy returns the controller's policy.
func (c *Controller) Policy() Policy { return c.policy }

// ScaleUps returns how many ScaleUp decisions have fired.
func (c *Controller) ScaleUps() int64 { return c.scaleUps }

// Observe consumes one epoch snapshot and returns the decision. The
// guards run in a fixed order (warmup, in-flight drain, cooldown,
// thresholds, rank bounds) so the reason token is deterministic.
func (c *Controller) Observe(s Snapshot) Decision {
	c.observed++
	util := s.Util()
	none := func(reason string) Decision {
		return Decision{Action: ScaleNone, Reason: reason, Util: util}
	}
	if c.observed <= warmupEpochs {
		return none("warmup")
	}
	if s.DrainingRanks > 0 {
		// One drain at a time: the signal is unreadable while capacity
		// is mid-flight, and overlapping drains would race for the
		// same survivors.
		return none("draining")
	}
	if c.scaled && s.Epoch-c.lastScaleEpoch <= cooldownEpochs {
		return none("cooldown")
	}
	switch {
	case util >= scaleUpUtil || s.MaxTenantDebt > 0:
		delta := stepUp
		if s.ActiveRanks+delta > c.policy.MaxRanks {
			delta = c.policy.MaxRanks - s.ActiveRanks
		}
		if delta <= 0 {
			return none("at_max")
		}
		c.noteScale(s.Epoch)
		c.scaleUps++
		reason := "saturated"
		if util < scaleUpUtil {
			// Only the tenant-debt signal fired: a tenant inside its
			// quota is starved for capacity even though aggregate
			// utilization looks fine (its demand is concentrated where
			// the pools run dry).
			reason = "tenant_debt"
		}
		return Decision{Action: ScaleUp, Delta: delta, Reason: reason, Util: util}
	case util < scaleDownUtil:
		if s.ActiveRanks-stepDown < c.policy.MinRanks {
			return none("at_min")
		}
		c.noteScale(s.Epoch)
		return Decision{Action: ScaleDown, Delta: stepDown, Reason: "idle", Util: util}
	}
	return none("steady")
}

func (c *Controller) noteScale(epoch int64) {
	c.scaled = true
	c.lastScaleEpoch = epoch
}
