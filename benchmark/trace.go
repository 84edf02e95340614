package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/balancer"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// span is one timed interval at a layer boundary. Spans are recorded
// by the harness around calls it makes or wraps, never inside the
// simulator. Calls is how many calls into the layer the span covers
// (per-op entry points are timed 1024 calls to a span: two time.Now()
// cost more than one Stream.Next).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Calls    int64  `json:"calls"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps the spans of one traced run in memory. Every wrapped
// call happens on the goroutine that drives Cluster.Step (the balancer,
// the generator's Setup and the sinks are all invoked from the tick's
// serial phases), so the open-span stack needs no lock.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open span. Like the
// simulator's Bus and Auditor, a nil tracer is valid and records
// nothing, so an untraced run takes the same code path.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Calls: 1})
	t.open = append(t.open, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = now
}

// timed runs fn under one span that covers calls calls into a layer
// and returns the span's duration.
func (t *tracer) timed(name string, calls int, fn func()) int64 {
	id := t.begin(name)
	fn()
	t.end(id)
	t.spans[id].Calls = int64(calls)
	return t.spans[id].dur()
}

// blocks runs fn over [0, n) in blocks of at most size calls, one span
// per block, and returns the mean nanoseconds per call.
func (t *tracer) blocks(name string, n, size int, fn func(lo, hi int)) float64 {
	var total int64
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		total += t.timed(name, hi-lo, func() { fn(lo, hi) })
	}
	return ratio(float64(total), float64(n))
}

// within returns the spans called name that have ancestor as an
// ancestor (any depth).
func (t *tracer) within(ancestor int, name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if p == ancestor {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

func totalDur(spans []span) int64 {
	var d int64
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), p.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, p.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// writeFile writes the spans as a JSON array to dir/trace-<workload>.json.
func (t *tracer) writeFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// tracedBalancer records one span per Rebalance call. It forwards
// obs.BusCarrier because cluster.New hands the bus to the balancer
// through that interface.
type tracedBalancer struct {
	balancer.Balancer
	t *tracer
}

func (b tracedBalancer) Rebalance(v balancer.View) {
	id := b.t.begin("balancer.Rebalance")
	b.Balancer.Rebalance(v)
	b.t.end(id)
}

func (b tracedBalancer) SetBus(bus *obs.Bus) {
	if bc, ok := b.Balancer.(obs.BusCarrier); ok {
		bc.SetBus(bus)
	}
}

// tracedGenerator records one span around the workload's Setup.
type tracedGenerator struct {
	workload.Generator
	t *tracer
}

func (g tracedGenerator) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]workload.ClientSpec, error) {
	id := g.t.begin("workload.Setup")
	specs, err := g.Generator.Setup(tree, clients, src)
	g.t.end(id)
	return specs, err
}

// countingSink counts the events a sink receives. Events are counted,
// not clocked: full_stack emits a hundred per tick.
type countingSink struct {
	obs.Sink
	n int64
}

func (s *countingSink) Write(e obs.Event) {
	s.n++
	s.Sink.Write(e)
}
