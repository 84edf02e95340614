package cluster

import (
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q eventQueue
	var fired []int
	q.schedule(5, func() { fired = append(fired, 5) })
	q.schedule(1, func() { fired = append(fired, 1) })
	q.schedule(3, func() { fired = append(fired, 3) })
	q.runDue(4)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if q.h.Len() != 1 || q.h[0].tick != 5 {
		t.Fatalf("pending = %d, want the tick-5 event", q.h.Len())
	}
	q.runDue(5)
	if len(fired) != 3 || fired[2] != 5 {
		t.Fatalf("fired = %v", fired)
	}
	if q.h.Len() != 0 {
		t.Fatal("queue should be drained")
	}
}

func TestQueueSameTickFIFO(t *testing.T) {
	var q eventQueue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.schedule(7, func() { fired = append(fired, i) })
	}
	q.runDue(7)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-tick events out of submission order: %v", fired)
		}
	}
}

func TestQueueScheduleDuringRun(t *testing.T) {
	var q eventQueue
	var fired []string
	q.schedule(1, func() {
		fired = append(fired, "a")
		q.schedule(1, func() { fired = append(fired, "b") }) // same tick, during run
		q.schedule(9, func() { fired = append(fired, "late") })
	})
	q.runDue(1)
	if len(fired) != 2 || fired[1] != "b" {
		t.Fatalf("fired = %v", fired)
	}
	q.runDue(9)
	if len(fired) != 3 || fired[2] != "late" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestQueueOrderProperty(t *testing.T) {
	f := func(ticks []uint8) bool {
		var q eventQueue
		var fired []int64
		for _, tk := range ticks {
			tk := int64(tk)
			q.schedule(tk, func() { fired = append(fired, tk) })
		}
		q.runDue(1 << 30)
		if len(fired) != len(ticks) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
