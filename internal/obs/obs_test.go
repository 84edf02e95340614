package obs

import (
	"strings"
	"testing"
)

func TestNilBusIsDisabledAndSafe(t *testing.T) {
	var b *Bus
	if b.Enabled(EvEpoch) {
		t.Fatal("nil bus must be disabled")
	}
	b.Emit(Event{Tick: 1, Type: EvEpoch}) // must not panic
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBusFilter(t *testing.T) {
	ring := NewRing(16)
	b := NewBus(ring)
	if !b.Enabled(EvCrash) {
		t.Fatal("fresh bus must pass all types")
	}
	b.Allow(EvCrash, EvRecover)
	if b.Enabled(EvEpoch) {
		t.Fatal("filtered type must not be enabled")
	}
	b.Emit(Event{Tick: 1, Type: EvEpoch})
	b.Emit(Event{Tick: 2, Type: EvCrash, Fields: F{"rank": 1}})
	if got := ring.Total(); got != 1 {
		t.Fatalf("want 1 delivered event, got %d", got)
	}
	b.Allow() // reset to all
	if !b.Enabled(EvEpoch) {
		t.Fatal("Allow() with no types must re-enable everything")
	}
}

func TestEventJSONDeterministicAndSorted(t *testing.T) {
	e := Event{Tick: 7, Type: EvCrash, Fields: F{"rank": 2, "aborted": 1, "live": 4}}
	want := `{"tick":7,"type":"mds_crash","aborted":1,"live":4,"rank":2}`
	for i := 0; i < 10; i++ {
		if got := e.String(); got != want {
			t.Fatalf("run %d: got %s want %s", i, got, want)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var sb strings.Builder
	s := NewJSONL(&sb)
	b := NewBus(s)
	b.Emit(Event{Tick: 1, Type: EvEpoch, Fields: F{"if": 0.5}})
	b.Emit(Event{Tick: 2, Type: EvRecover, Fields: F{"rank": 0}})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"tick":1,"type":"epoch","if":0.5}` + "\n" +
		`{"tick":2,"type":"mds_recover","rank":0}` + "\n"
	if sb.String() != want {
		t.Fatalf("got:\n%swant:\n%s", sb.String(), want)
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing(3)
	for i := int64(0); i < 5; i++ {
		r.Write(Event{Tick: i, Type: EvEpoch})
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].Tick != 2 || ev[2].Tick != 4 {
		t.Fatalf("ring contents wrong: %v", ev)
	}
	if r.Total() != 5 {
		t.Fatalf("total=%d", r.Total())
	}
}

func TestSummaryCounts(t *testing.T) {
	s := NewSummary()
	b := NewBus(s)
	b.Emit(Event{Type: EvEpoch})
	b.Emit(Event{Type: EvEpoch})
	b.Emit(Event{Type: EvCrash})
	if s.Total() != 3 || s.Counts()[EvEpoch] != 2 {
		t.Fatalf("summary wrong: total=%d counts=%v", s.Total(), s.Counts())
	}
	out := s.String()
	if !strings.Contains(out, "epoch") || !strings.Contains(out, "mds_crash") {
		t.Fatalf("summary output missing types:\n%s", out)
	}
}

func TestParseTypes(t *testing.T) {
	if ts, err := ParseTypes(""); err != nil || ts != nil {
		t.Fatalf("empty spec: %v %v", ts, err)
	}
	if ts, err := ParseTypes("all"); err != nil || ts != nil {
		t.Fatalf("all spec: %v %v", ts, err)
	}
	ts, err := ParseTypes("epoch, mds_crash")
	if err != nil || len(ts) != 2 || ts[0] != EvEpoch || ts[1] != EvCrash {
		t.Fatalf("parse: %v %v", ts, err)
	}
	if _, err := ParseTypes("bogus"); err == nil {
		t.Fatal("unknown type must error")
	}
}

// BenchmarkDisabledEmitSite measures the cost a disabled bus adds at
// one emit site — the guard every instrumented hot path pays when
// tracing is off. It must stay at nil-check cost (sub-nanosecond), the
// basis of the <5% tick-loop overhead budget.
func BenchmarkDisabledEmitSite(b *testing.B) {
	var bus *Bus
	n := 0
	for i := 0; i < b.N; i++ {
		if bus.Enabled(EvRank) {
			n++
		}
	}
	if n != 0 {
		b.Fatal("disabled bus emitted")
	}
}
