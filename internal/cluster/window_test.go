package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/namespace"
	"repro/internal/workload"
)

// checkWindows is the oracle of the carried plan (engine.go, window):
// after a Step, no sync client's window reaches past its queue, and
// every entry the next plan would reuse — all of them, under a window
// whose version still stands — equals a fresh resolution of the op
// queued at that position through the Partition itself (for a create:
// the entry and hash of its name, no target). It returns how many such
// entries resolve a create.
func checkWindows(t *testing.T, c *Cluster) (creates int) {
	t.Helper()
	e := c.engine
	for ci, cl := range c.clients {
		w := &e.win[ci]
		n := len(w.routes) - int(w.head)
		if int64(n) > cl.PendingOps() {
			t.Fatalf("tick %d client %d: window holds %d entries, queue %d ops", c.tick, ci, n, cl.PendingOps())
		}
		if w.ver != c.part.Version() {
			continue // stale: the next plan drops it whole
		}
		for k := 0; k < n; k++ {
			r, op := w.routes[int(w.head)+k], cl.OpAt(k)
			want := routed{write: op.Kind.IsWrite(), ends: e.endsRun(cl, op)}
			if op.Kind == workload.OpCreate {
				want.ent = c.part.GoverningChildEntry(op.Parent, op.Name)
			} else {
				want.target, want.ent = op.Target, c.part.GoverningEntry(op.Target)
			}
			if r != want {
				t.Fatalf("tick %d client %d op %d (%v): carried %+v, fresh %+v", c.tick, ci, k, op.Kind, r, want)
			}
			if op.Kind == workload.OpCreate {
				if r.target != nil {
					t.Fatalf("tick %d client %d op %d: create carried with a target", c.tick, ci, k)
				}
				creates++
			}
		}
	}
	return creates
}

// carriedStats is what stepWindows saw of the mechanism: stall notes;
// entries that stood in a window whose version the next tick's plan
// still found (reused, not resolved), creates and run-ending ops among
// the standing entries; and the scenario's own activity.
type carriedStats struct {
	stalls                    int64
	carried, creates          int
	versions, ends, ticksRun  int
	migrated, entries, leases int64
}

// stepWindows is the drive of the saturated rows: it steps the run to
// completion under checkWindows and records what the carried plan did.
func stepWindows(t *testing.T, r *run) {
	c, e, st := r.c, r.c.engine, &r.st
	left := make([]int, len(c.clients))
	vers := make([]uint64, len(c.clients))
	for c.tick < 30000 && !c.Done() {
		for ci := range c.clients {
			w := &e.win[ci]
			left[ci], vers[ci] = len(w.routes)-int(w.head), w.ver
		}
		ver := c.part.Version()
		c.Step()
		if c.part.Version() != ver {
			st.versions++
		}
		for ci := range c.clients {
			w := &e.win[ci]
			// The plan ran for this client and kept its window: what
			// stood in it was walked, not resolved.
			if c.resolver != nil && e.participated[ci] && w.ver == vers[ci] {
				st.carried += left[ci]
			}
			for _, rt := range w.routes[w.head:] {
				if rt.ends {
					st.ends++
				}
			}
		}
		st.creates += checkWindows(t, c)
	}
	st.ticksRun = int(c.tick)
	for _, s := range c.servers {
		st.stalls += s.Stalls()
	}
	st.migrated = int64(c.Metrics().MigratedTotal())
	st.entries = int64(c.part.NumEntries())
	st.leases = c.LeaseServes()
}

// createTrace is a trace-file workload (a tree-reading stream: every
// create ends its run) of 8 clients, each stat-ing a private file
// between creates of fresh names and of names a later getattr makes
// Setup pre-create — creates of an existing name.
func createTrace() workload.Generator {
	var b strings.Builder
	for i := 0; i < 150; i++ {
		for c := 0; c < 8; c++ {
			fmt.Fprintf(&b, "%d getattr /tr/c%d/base 0\n%d getattr /tr/c%d/base 0\n", c, c, c, c)
			fmt.Fprintf(&b, "%d create /tr/c%d/new%04d 0\n", c, c, i)
			fmt.Fprintf(&b, "%d open /tr/c%d/base 64\n", c, c)
			if i%3 == 0 {
				fmt.Fprintf(&b, "%d create /tr/c%d/old%04d 0\n%d getattr /tr/c%d/old%04d 0\n", c, c, i, c, c, i)
			}
		}
	}
	tf, err := workload.ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		panic(err)
	}
	return tf
}

// carriesCreates asserts that creates stood in carried windows: of
// names that exist and of names that do not alike, since where a create
// is routed does not depend on it.
func carriesCreates(t *testing.T, r *run) {
	if r.st.creates == 0 {
		t.Errorf("no create was carried: %+v", r.st)
	}
}

// TestCarriedCreateRoutedOnce: a create admission refused is planned
// next tick from its window slot, not resolved again — so over a run
// with a standing partition version, route is called once per op drawn.
// Every carried create's slot is marked with an authority no resolution
// produces (the cluster has one rank); one plan later the marks must all
// stand, beside freshly drawn ops that were routed.
func TestCarriedCreateRoutedOnce(t *testing.T) {
	c := newTestCluster(t, Config{MDS: 1, Clients: 8, Capacity: 400, Seed: 42,
		Workload: workload.NewMD(workload.MDConfig{CreatesPerClient: 20000})})
	c.Run(20) // saturated: each client is cut every tick
	const mark = namespace.MDSID(7)
	e := c.engine
	standing := make([]int, len(c.clients))
	marked := 0
	for ci := range c.clients {
		w := &e.win[ci]
		if w.ver != c.part.Version() {
			t.Fatalf("client %d: the partition version moved; nothing is carried", ci)
		}
		standing[ci] = len(w.routes) - int(w.head)
		for k := range w.routes[w.head:] {
			if r := &w.routes[int(w.head)+k]; r.target == nil {
				r.ent.Auth = mark
				marked++
			}
		}
		e.credit[ci] = 150
	}
	planned := 0
	for ci := range c.clients {
		for _, u := range e.plan(int32(ci), c.tick) {
			planned += int(u.n)
		}
	}
	for ci, cl := range c.clients {
		for k, r := range e.win[ci].routes {
			op := cl.OpAt(k)
			if op.Kind != workload.OpCreate {
				continue
			}
			carried, resolved := k < standing[ci], r.ent.Auth != mark
			if carried == resolved {
				t.Fatalf("client %d op %d: carried %v, resolved by this plan %v", ci, k, carried, resolved)
			}
		}
	}
	if marked == 0 || planned <= marked {
		t.Fatalf("%d carried creates, %d ops planned: want some carried and some drawn", marked, planned)
	}
}
