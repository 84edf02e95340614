package cluster

import (
	"path"
	"testing"

	"repro/internal/audit"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

// relayStats gives client i one getattr of the file at path i.
type relayStats []string

func (relayStats) Name() string { return "relay-stats" }

func (w relayStats) Setup(tree *namespace.Tree, clients int, _ *rng.Source) ([]workload.ClientSpec, error) {
	specs := make([]workload.ClientSpec, clients)
	for i, p := range w[:clients] {
		dir, err := tree.MkdirAll(path.Dir(p))
		if err != nil {
			return nil, err
		}
		f, err := tree.Create(dir, path.Base(p), 0)
		if err != nil {
			return nil, err
		}
		ops := []workload.Op{{Kind: workload.OpGetattr, Target: f}}
		specs[i] = workload.ClientSpec{Stream: workload.NewOpList(ops), RateScale: 1}
	}
	return specs, nil
}

// TestRelayChargeLandsAtOnce: a relay charges its hop when it is made,
// so a later request in the same tick sees the charge. Rank 0 holds the
// root and has one unit a tick; every request below relays through it
// on a cold client cache.
func TestRelayChargeLandsAtOnce(t *testing.T) {
	start := func(t *testing.T, files relayStats, pins map[string]int) *Cluster {
		aud := audit.New(audit.Options{EveryTick: true})
		c := newTestCluster(t, Config{MDS: 2, Clients: len(files), Seed: 11, Workload: files, Audit: aud})
		for p, rank := range pins {
			if err := c.PinPath(p, rank); err != nil {
				t.Fatal(err)
			}
		}
		c.Servers()[0].SetCapacity(1)
		c.Step()
		return c
	}
	// finish runs the stalled ops to completion: every op is done once
	// and served once, and the every-tick auditor (ops conservation
	// among its checks) stays clean.
	finish := func(t *testing.T, c *Cluster) {
		c.RunUntilDone(100)
		if !c.Done() {
			t.Fatal("clients must finish")
		}
		var done, served int64
		for _, cl := range c.Clients() {
			done += cl.OpsDone()
		}
		for _, s := range c.Servers() {
			served += s.OpsTotal()
		}
		if n := int64(len(c.Clients())); done != n || served != n {
			t.Errorf("%d ops done and %d served, want %d of each", done, served, n)
		}
		for _, v := range c.Auditor().Violations() {
			t.Errorf("audit violation: %s", v)
		}
	}

	t.Run("second relay stalls at the hop", func(t *testing.T) {
		// Two clients read under /d at rank 1: the first relay takes
		// rank 0's unit, and the second stalls there.
		c := start(t, relayStats{"/d/x", "/d/y"}, map[string]int{"/d": 1})
		var done int64
		for _, cl := range c.Clients() {
			done += cl.OpsDone()
		}
		hop := c.Servers()[0]
		if done != 1 || hop.Forwards() != 1 || hop.Stalls() != 1 {
			t.Fatalf("tick 1: %d ops done, hop relayed %d and stalled %d; want 1, 1, 1",
				done, hop.Forwards(), hop.Stalls())
		}
		finish(t, c)
	})

	t.Run("relay takes the serving rank's last unit", func(t *testing.T) {
		// /a/b/f is served by rank 0 through the chain 0 → 1 → 0: the
		// relay charge at rank 0 takes the unit admission reserved for
		// the op, which stalls there unserved.
		c := start(t, relayStats{"/a/b/f"}, map[string]int{"/a": 1, "/a/b": 0})
		auth := c.Servers()[0]
		if n := c.Clients()[0].OpsDone(); n != 0 || auth.OpsTotal() != 0 {
			t.Fatalf("tick 1: %d ops done, %d served at rank 0 with its budget spent on a relay", n, auth.OpsTotal())
		}
		if auth.Forwards() != 1 || auth.Stalls() != 1 || c.Servers()[1].Forwards() != 1 {
			t.Fatalf("tick 1: rank 0 relayed %d and stalled %d, rank 1 relayed %d; want 1, 1, 1",
				auth.Forwards(), auth.Stalls(), c.Servers()[1].Forwards())
		}
		finish(t, c)
	})
}
