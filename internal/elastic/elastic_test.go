package elastic

import "testing"

func testPolicy() Policy {
	return Policy{MinRanks: 4, MaxRanks: 8}
}

// warmed returns a testPolicy controller past its warmup, having seen
// active ranks at half load, and the epoch of its next snapshot.
func warmed(active int) (*Controller, int64) {
	c := MustController(testPolicy())
	for e := int64(0); e < warmupEpochs; e++ {
		c.Observe(snap(e, active, 0, 0.5))
	}
	return c, warmupEpochs
}

// snap builds a snapshot with util = load/(active*1000).
func snap(epoch int64, active, draining int, util float64) Snapshot {
	return Snapshot{
		Epoch:         epoch,
		ActiveRanks:   active,
		DrainingRanks: draining,
		Load:          util * float64(active) * 1000,
		Capacity:      1000,
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{MinRanks: 0, MaxRanks: 4},
		{MinRanks: 4, MaxRanks: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d: expected validation error, got nil", i)
		}
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
}

func TestWarmupSuppressesDecisions(t *testing.T) {
	c := MustController(testPolicy())
	for e := int64(0); e < warmupEpochs; e++ {
		d := c.Observe(snap(e, 4, 0, 0.99))
		if d.Action != ScaleNone || d.Reason != "warmup" {
			t.Fatalf("epoch %d: want warmup None, got %v/%s", e, d.Action, d.Reason)
		}
	}
	if d := c.Observe(snap(warmupEpochs, 4, 0, 0.99)); d.Action != ScaleUp {
		t.Fatalf("after warmup: want ScaleUp, got %v/%s", d.Action, d.Reason)
	}
}

func TestScaleUpClampsToMax(t *testing.T) {
	c, e := warmed(7)
	d := c.Observe(snap(e, 7, 0, 0.9))
	if d.Action != ScaleUp || d.Delta != 1 {
		t.Fatalf("want ScaleUp delta 1 (clamped to max 8), got %v delta %d", d.Action, d.Delta)
	}
	// At the ceiling the controller reports at_max, not a zero-delta up.
	c2, e := warmed(8)
	if d := c2.Observe(snap(e, 8, 0, 0.9)); d.Action != ScaleNone || d.Reason != "at_max" {
		t.Fatalf("at ceiling: want None/at_max, got %v/%s", d.Action, d.Reason)
	}
}

func TestScaleDownClampsToMin(t *testing.T) {
	c, e := warmed(5)
	d := c.Observe(snap(e, 5, 0, 0.1))
	if d.Action != ScaleDown || d.Delta != 1 {
		t.Fatalf("want ScaleDown delta 1, got %v delta %d", d.Action, d.Delta)
	}
	c2, e := warmed(4)
	if d := c2.Observe(snap(e, 4, 0, 0.1)); d.Action != ScaleNone || d.Reason != "at_min" {
		t.Fatalf("at floor: want None/at_min, got %v/%s", d.Action, d.Reason)
	}
}

func TestCooldownBetweenDecisions(t *testing.T) {
	c, up := warmed(4)
	if d := c.Observe(snap(up, 4, 0, 0.9)); d.Action != ScaleUp {
		t.Fatalf("want ScaleUp, got %v/%s", d.Action, d.Reason)
	}
	// Cooldown 2: the next two epochs are inside the window.
	for e := up + 1; e <= up+2; e++ {
		if d := c.Observe(snap(e, 6, 0, 0.9)); d.Action != ScaleNone || d.Reason != "cooldown" {
			t.Fatalf("epoch %d: want cooldown, got %v/%s", e, d.Action, d.Reason)
		}
	}
	if d := c.Observe(snap(up+3, 6, 0, 0.9)); d.Action != ScaleUp {
		t.Fatalf("after cooldown: want ScaleUp, got %v/%s", d.Action, d.Reason)
	}
}

func TestHysteresisBandHolds(t *testing.T) {
	c, first := warmed(6)
	// Anything in [0.35, 0.75) is steady: no oscillation.
	for e := first; e < first+4; e++ {
		u := 0.35 + 0.08*float64(e-first+1)
		if d := c.Observe(snap(e, 6, 0, u)); d.Action != ScaleNone || d.Reason != "steady" {
			t.Fatalf("epoch %d util %.2f: want steady, got %v/%s", e, u, d.Action, d.Reason)
		}
	}
}

// TestThresholdEdges: growth fires at exactly 75% utilization and adds
// two ranks; 35% is still steady and anything below it drains one.
func TestThresholdEdges(t *testing.T) {
	for _, tc := range []struct {
		load   float64 // over 6 ranks of capacity 1000
		action Action
		delta  int
	}{
		{4500, ScaleUp, 2},
		{4499, ScaleNone, 0},
		{2100, ScaleNone, 0},
		{2099, ScaleDown, 1},
	} {
		c, e := warmed(6)
		s := Snapshot{Epoch: e, ActiveRanks: 6, Load: tc.load, Capacity: 1000}
		if d := c.Observe(s); d.Action != tc.action || d.Delta != tc.delta {
			t.Errorf("load %v: got %v delta %d, want %v delta %d", tc.load, d.Action, d.Delta, tc.action, tc.delta)
		}
	}
}

func TestDrainInFlightBlocksDecisions(t *testing.T) {
	c, e := warmed(6)
	if d := c.Observe(snap(e, 6, 1, 0.95)); d.Action != ScaleNone || d.Reason != "draining" {
		t.Fatalf("with a drain in flight: want None/draining, got %v/%s", d.Action, d.Reason)
	}
}

func TestCounters(t *testing.T) {
	c, e := warmed(4)
	c.Observe(snap(e, 4, 0, 0.9)) // up
	for _, s := range []Snapshot{snap(e+3, 6, 0, 0.1), snap(e+6, 5, 0, 0.05)} {
		if d := c.Observe(s); d.Action != ScaleDown { // past cooldown
			t.Fatalf("epoch %d: want a scale-down, got %v", s.Epoch, d.Action)
		}
	}
	if c.ScaleUps() != 1 {
		t.Fatalf("scale-ups %d, want 1", c.ScaleUps())
	}
}

func TestUtilCountsDrainingLoadNotCapacity(t *testing.T) {
	// 4 active + 1 draining, each pushing 500 ops/s at capacity 1000:
	// demand 2500 over remaining capacity 4000 = 0.625.
	s := Snapshot{ActiveRanks: 4, DrainingRanks: 1, Load: 2500, Capacity: 1000}
	if got := s.Util(); got != 0.625 {
		t.Fatalf("util = %g, want 0.625", got)
	}
	if (Snapshot{}).Util() != 0 {
		t.Fatal("empty snapshot must have zero util")
	}
}
