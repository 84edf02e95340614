// Package osd models the data path for end-to-end experiments: a pool
// of object storage daemons with an aggregate per-tick bandwidth
// budget. Clients acquire bandwidth to move their file data; when the
// pool is drained, clients block — which is exactly the effect the
// paper's Figure 8 measures (the data path diluting metadata-side
// gains).
package osd

// Pool is a bandwidth-limited OSD cluster.
type Pool struct {
	perTick int64 // the pool's total bytes per tick
	budget  int64 // remaining bytes this tick
}

// NewPool creates a pool that moves bytesPerTick bytes per tick in
// total, over all its OSDs.
func NewPool(bytesPerTick int64) *Pool {
	return &Pool{perTick: bytesPerTick}
}

// BeginTick refills the tick's bandwidth budget.
func (p *Pool) BeginTick() {
	p.budget = p.perTick
}

// Consume grants up to want bytes from the remaining budget and
// returns the granted amount.
func (p *Pool) Consume(want int64) int64 {
	if want <= 0 || p.budget <= 0 {
		return 0
	}
	g := want
	if g > p.budget {
		g = p.budget
	}
	p.budget -= g
	return g
}

// Remaining returns the unconsumed budget of the current tick.
func (p *Pool) Remaining() int64 { return p.budget }
