package osd

import "testing"

func TestPoolBudget(t *testing.T) {
	p := NewPool(200)
	p.BeginTick()
	if p.Remaining() != 200 {
		t.Fatalf("budget = %d", p.Remaining())
	}
	if got := p.Consume(150); got != 150 {
		t.Fatalf("consume = %d", got)
	}
	if got := p.Consume(100); got != 50 {
		t.Fatalf("over-consume granted %d, want 50", got)
	}
	if got := p.Consume(10); got != 0 {
		t.Fatal("drained pool must grant 0")
	}
	p.BeginTick()
	if p.Remaining() != 200 {
		t.Fatal("budget must refill per tick")
	}
}

func TestPoolDegenerate(t *testing.T) {
	p := NewPool(0)
	p.BeginTick()
	if p.Consume(10) != 0 {
		t.Fatal("empty pool grants nothing")
	}
	if p.Consume(-5) != 0 {
		t.Fatal("negative want")
	}
	neg := NewPool(-300)
	neg.BeginTick()
	if neg.Consume(10) != 0 {
		t.Fatal("negative bandwidth grants nothing")
	}
}
