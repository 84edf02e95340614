package core

import (
	"testing"

	"repro/internal/obs"
)

// traced attaches a ring-backed bus to the balancer; trigger reads back
// a field of the last trigger decision it recorded.
func traced(lun *Lunule) *obs.Ring {
	ring := obs.NewRing(16)
	lun.SetBus(obs.NewBus(ring))
	return ring
}

func trigger(t *testing.T, ring *obs.Ring, field string) float64 {
	t.Helper()
	evs := ring.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Type == obs.EvTrigger {
			return evs[i].Fields[field].(float64)
		}
	}
	t.Fatal("no trigger decision traced")
	return 0
}

func TestLunuleTriggersOnHarmfulSkew(t *testing.T) {
	v, dirs := buildView(t, 10, 20)
	// Saturate MDS 0 while the others idle: 200 files x 100 visits
	// per epoch = 2000 ops/sec = the full capacity C -> IF near 1.
	for e := int64(0); e < 3; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 100, e)
			}
		}
		v.EndEpoch()
	}
	lun := NewDefault()
	ring := traced(lun)
	lun.Rebalance(v)
	if ifv := trigger(t, ring, "if"); ifv < 0.5 {
		t.Fatalf("IF = %v, want high for a fully skewed saturated cluster", ifv)
	}
	if lun.Rebalances() != 1 {
		t.Fatalf("rebalances = %d, want 1", lun.Rebalances())
	}
	if v.Mig.QueuedTasks()+v.Mig.ActiveTasks() == 0 {
		t.Fatal("harmful skew must submit migrations")
	}
}

func TestLunuleToleratesBenignSkew(t *testing.T) {
	v, dirs := buildView(t, 10, 20)
	// Same skew shape, ~5% of capacity: benign.
	for e := int64(0); e < 3; e++ {
		for _, d := range dirs {
			for _, f := range d.Children()[:5] {
				v.ServeN(f, 1, e)
			}
		}
		v.EndEpoch()
	}
	lun := NewDefault()
	ring := traced(lun)
	lun.Rebalance(v)
	if ifv := trigger(t, ring, "if"); ifv >= threshold {
		t.Fatalf("benign IF = %v, want below threshold %v", ifv, threshold)
	}
	if lun.Rebalances() != 0 || v.Mig.QueuedTasks() != 0 {
		t.Fatal("benign skew must not migrate")
	}
}

func TestLunuleDisableUrgencyFiresOnBenign(t *testing.T) {
	build := func() (*Lunule, func()) {
		v, dirs := buildView(t, 10, 20)
		lun := New(Config{WorkloadAware: true, DisableUrgency: true})
		fire := func() {
			for e := int64(0); e < 3; e++ {
				for _, d := range dirs {
					for _, f := range d.Children()[:5] {
						v.ServeN(f, 1, e)
					}
				}
				v.EndEpoch()
			}
			lun.Rebalance(v)
		}
		return lun, fire
	}
	lun, fire := build()
	ring := traced(lun)
	fire()
	if u := trigger(t, ring, "u"); u != 1 {
		t.Fatalf("ablated urgency = %v, want 1", u)
	}
	if lun.Rebalances() == 0 {
		t.Fatal("without urgency the benign skew must trigger")
	}
}

func TestLunuleIdleClusterNoop(t *testing.T) {
	v, _ := buildView(t, 4, 10)
	v.EndEpoch()
	lun := NewDefault()
	lun.Rebalance(v)
	if v.Mig.QueuedTasks() != 0 || lun.Rebalances() != 0 {
		t.Fatal("idle cluster must be left alone")
	}
}

func TestLunuleLightUsesHeatSelection(t *testing.T) {
	v, dirs := buildView(t, 10, 20)
	for e := int64(0); e < 3; e++ {
		for _, d := range dirs {
			for _, f := range d.Children() {
				v.ServeN(f, 100, e)
			}
		}
		v.EndEpoch()
	}
	light := NewLight()
	if light.Name() != "Lunule-Light" {
		t.Fatal("name")
	}
	light.Rebalance(v)
	if v.Mig.QueuedTasks()+v.Mig.ActiveTasks() == 0 {
		t.Fatal("light variant must still migrate on harmful skew")
	}
}

// TestNewHonorsExplicitZero: New takes the config verbatim. The zero
// Config is Lunule-Light with nothing ablated — not "unset, so use the
// paper's system" — and a single switch set reaches the balancer alone.
func TestNewHonorsExplicitZero(t *testing.T) {
	if lun := New(Config{}); lun.Name() != "Lunule-Light" || lun.cfg != (Config{}) {
		t.Fatalf("zero config became %q %+v", lun.Name(), lun.cfg)
	}
	want := Config{WorkloadAware: true, DisableSiblingCredit: true}
	if lun := New(want); lun.Name() != "Lunule" || lun.cfg != want {
		t.Fatalf("config %+v became %q %+v", want, lun.Name(), lun.cfg)
	}
	if NewDefault().cfg != (Config{WorkloadAware: true}) || NewLight().cfg != (Config{}) {
		t.Fatal("the named variants ablate nothing")
	}
}
