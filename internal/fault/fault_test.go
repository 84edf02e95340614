package fault

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestParseSpecs(t *testing.T) {
	s, err := ParseSpecs("400:0, 100:1", Crash)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Tick: 100, Rank: 1, Kind: Crash},
		{Tick: 400, Rank: 0, Kind: Crash},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("events = %+v, want %+v (sorted by tick)", s.Events, want)
	}
	if err := s.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestParseSpecsHottest(t *testing.T) {
	s, err := ParseSpecs("250:hot", Crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 || s.Events[0].Rank != HottestRank {
		t.Fatalf("events = %+v, want one HottestRank crash", s.Events)
	}
	// "hot" validates against any cluster size for crashes ...
	if err := s.Validate(1); err != nil {
		t.Fatal(err)
	}
	// ... but is rejected for recoveries (there is no hottest-down rank).
	if _, err := ParseSpecs("250:hot", Recover); err == nil {
		t.Fatal("recover spec 'hot' must be rejected")
	}
}

func TestParseSpecsEmpty(t *testing.T) {
	s, err := ParseSpecs("  ", Crash)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Fatal("blank spec must parse to an empty schedule")
	}
}

func TestParseSpecsErrors(t *testing.T) {
	for _, spec := range []string{"100", "x:1", "100:x", "-5:1", "100:-2", "100:1:2extra,"} {
		if _, err := ParseSpecs(spec, Crash); err == nil {
			t.Errorf("ParseSpecs(%q) = nil error, want error", spec)
		}
	}
}

func TestValidateRange(t *testing.T) {
	var s Schedule
	s.Crash(10, 5)
	if err := s.Validate(5); err == nil {
		t.Fatal("rank 5 in a 5-rank cluster must be rejected")
	}
	if err := s.Validate(6); err != nil {
		t.Fatal(err)
	}
	var neg Schedule
	neg.Recover(-1, 0)
	if err := neg.Validate(6); err == nil {
		t.Fatal("negative tick must be rejected")
	}
}

// validateCases are the two script mistakes Validate rejects beyond
// range errors — duplicate same-tick same-target events, and recoveries
// with no earlier crash that could have taken the rank down — and their
// near misses, each in a 4-rank cluster.
var validateCases = []struct {
	name  string
	build func() Schedule
	ok    bool
}{
	{"duplicate crash same tick same rank", func() Schedule {
		var s Schedule
		s.Crash(10, 1).Crash(10, 1)
		return s
	}, false},
	{"crash and recover same tick same rank", func() Schedule {
		var s Schedule
		s.Crash(10, 1).Recover(10, 1)
		return s
	}, false},
	{"duplicate hottest crash same tick", func() Schedule {
		var s Schedule
		s.CrashHottest(10).CrashHottest(10)
		return s
	}, false},
	{"duplicate path crash same tick", func() Schedule {
		var s Schedule
		s.CrashPath(10, "/a").CrashPath(10, "/a")
		return s
	}, false},
	{"same tick different ranks", func() Schedule {
		var s Schedule
		s.Crash(10, 1).Crash(10, 2)
		return s
	}, true},
	{"same tick hottest plus concrete", func() Schedule {
		var s Schedule
		s.CrashHottest(10).Crash(10, 2)
		return s
	}, true},
	{"same tick different paths", func() Schedule {
		var s Schedule
		s.CrashPath(10, "/a").CrashPath(10, "/b")
		return s
	}, true},
	{"same target different ticks", func() Schedule {
		var s Schedule
		s.Crash(10, 1).Recover(20, 1).Crash(30, 1)
		return s
	}, true},
	{"recover before any crash", func() Schedule {
		var s Schedule
		s.Recover(10, 1)
		return s
	}, false},
	{"recover before its crash", func() Schedule {
		var s Schedule
		s.Crash(50, 1).Recover(10, 1)
		return s
	}, false},
	{"recover of the wrong rank", func() Schedule {
		var s Schedule
		s.Crash(10, 1).Recover(20, 2)
		return s
	}, false},
	{"recover out of submission order still valid", func() Schedule {
		var s Schedule
		s.Recover(20, 1).Crash(10, 1) // validation sorts by tick
		return s
	}, true},
	{"wildcard crash authorizes later recover", func() Schedule {
		var s Schedule
		s.CrashHottest(10).Recover(20, 0)
		return s
	}, true},
	{"path crash authorizes later recover", func() Schedule {
		var s Schedule
		s.CrashPath(10, "/a").Recover(20, 2)
		return s
	}, true},
	{"wildcard crash at the recover tick is not earlier", func() Schedule {
		var s Schedule
		s.CrashHottest(10).Recover(10, 0)
		return s
	}, false},
	{"path on a recover", func() Schedule {
		var s Schedule
		s.Events = append(s.Events, Event{Tick: 10, Rank: 1, Kind: Recover, Path: "/a"})
		return s
	}, false},
}

// TestValidateDuplicatesAndOrdering is the table test of validateCases.
func TestValidateDuplicatesAndOrdering(t *testing.T) {
	for _, tc := range validateCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build()
			err := s.Validate(4)
			if tc.ok && err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate = nil, want error")
			}
		})
	}
}

func TestParseSpecsPath(t *testing.T) {
	s, err := ParseSpecs("100:/a/b, 250:hot", Crash)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Tick: 100, Rank: HottestRank, Kind: Crash, Path: "/a/b"},
		{Tick: 250, Rank: HottestRank, Kind: Crash},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("events = %+v, want %+v", s.Events, want)
	}
	// Path crashes validate against any cluster size ...
	if err := s.Validate(1); err != nil {
		t.Fatal(err)
	}
	// ... but a path recover spec is rejected (recoveries name ranks).
	if _, err := ParseSpecs("100:/a/b", Recover); err == nil {
		t.Fatal("recover spec with a path must be rejected")
	}
}

func TestMergeSorts(t *testing.T) {
	var a Schedule
	a.Crash(300, 0)
	var b Schedule
	b.Recover(100, 1)
	a.Merge(b)
	if a.Events[0].Tick != 100 || a.Events[1].Tick != 300 {
		t.Fatalf("merged events not sorted: %+v", a.Events)
	}
}

func TestMTBFDeterministic(t *testing.T) {
	cfg := MTBFConfig{Ranks: 5, MTBF: 200, Horizon: 5000}
	a := MTBF(cfg, rng.New(7).Fork(99))
	b := MTBF(cfg, rng.New(7).Fork(99))
	if a.Empty() {
		t.Fatal("MTBF 200 over 5000 ticks should produce events")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed must draw the same schedule")
	}
	c := MTBF(cfg, rng.New(8).Fork(99))
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds should draw different schedules")
	}
}

// TestMTBFKeepsOneSurvivor replays each generated schedule and asserts
// the concurrent-down invariant: at no point are all ranks down, so the
// cluster always has a survivor to take over orphaned subtrees. Repairs
// slower than failures make the Ranks−1 bound bind: some seed of each
// configuration reaches it.
func TestMTBFKeepsOneSurvivor(t *testing.T) {
	for _, cfg := range []MTBFConfig{
		{Ranks: 3, MTBF: 50, MTTR: 100, Horizon: 4000},
		{Ranks: 6, MTBF: 30, MTTR: 200, Horizon: 4000},
	} {
		peak := 0
		for seed := uint64(1); seed <= 20; seed++ {
			s := MTBF(cfg, rng.New(seed))
			if err := s.Validate(cfg.Ranks); err != nil {
				t.Fatal(err)
			}
			down := map[int]bool{}
			for _, ev := range s.Events {
				switch ev.Kind {
				case Crash:
					if down[ev.Rank] {
						t.Fatalf("seed %d: rank %d crashed while down", seed, ev.Rank)
					}
					down[ev.Rank] = true
				case Recover:
					if !down[ev.Rank] {
						t.Fatalf("seed %d: rank %d recovered while up", seed, ev.Rank)
					}
					delete(down, ev.Rank)
				}
				if len(down) >= cfg.Ranks {
					t.Fatalf("seed %d: all %d ranks down simultaneously", seed, cfg.Ranks)
				}
				peak = max(peak, len(down))
				if ev.Tick < 0 || ev.Tick >= cfg.Horizon {
					t.Fatalf("seed %d: event tick %d outside horizon", seed, ev.Tick)
				}
			}
		}
		if peak != cfg.Ranks-1 {
			t.Errorf("%d ranks: at most %d down at once, want the bound %d reached", cfg.Ranks, peak, cfg.Ranks-1)
		}
	}
}

func TestMTBFDegenerateConfigs(t *testing.T) {
	for _, cfg := range []MTBFConfig{
		{},
		{Ranks: 0, MTBF: 100, Horizon: 1000},
		{Ranks: 3, MTBF: 0, Horizon: 1000},
		{Ranks: 3, MTBF: 100, Horizon: 0},
		{Ranks: 1, MTBF: 100, Horizon: 1000}, // single rank: no failure leaves a survivor
	} {
		if s := MTBF(cfg, rng.New(1)); !s.Empty() {
			t.Errorf("MTBF(%+v) produced %d events, want none", cfg, len(s.Events))
		}
	}
}

// specOf renders events the way ParseSpecs reads them: tick:rank,
// tick:hot or tick:/path, comma-separated.
func specOf(events []Event) string {
	parts := make([]string, len(events))
	for i, ev := range events {
		target := strconv.Itoa(ev.Rank)
		switch {
		case ev.Path != "":
			target = ev.Path
		case ev.Rank == HottestRank:
			target = "hot"
		}
		parts[i] = fmt.Sprintf("%d:%s", ev.Tick, target)
	}
	return strings.Join(parts, ",")
}

// FuzzParseSpecs feeds a spec string of either kind through ParseSpecs
// and Validate against a rank count. Neither may panic, and a schedule
// both accept must parse back from its own rendering to the same
// events. The seeds are validateCases, one spec per kind present.
func FuzzParseSpecs(f *testing.F) {
	for _, tc := range validateCases {
		s := tc.build()
		for _, k := range []Kind{Crash, Recover} {
			var evs []Event
			for _, ev := range s.Events {
				if ev.Kind == k {
					evs = append(evs, ev)
				}
			}
			if len(evs) > 0 {
				f.Add(specOf(evs), uint8(k), int16(4))
			}
		}
	}
	f.Fuzz(func(t *testing.T, spec string, kind uint8, ranks int16) {
		k := Kind(kind % 2)
		s, err := ParseSpecs(spec, k)
		if err != nil || s.Validate(int(ranks)) != nil {
			return
		}
		rendered := specOf(s.Events)
		back, err := ParseSpecs(rendered, k)
		if err != nil {
			t.Fatalf("%q accepted, but its rendering %q: %v", spec, rendered, err)
		}
		if !reflect.DeepEqual(back.Events, s.Events) {
			t.Fatalf("%q rendered as %q parses to %+v, want %+v", spec, rendered, back.Events, s.Events)
		}
	})
}
