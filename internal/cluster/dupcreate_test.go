package cluster

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

// dupCreateNames is how many names each duplicate-create pair fights
// over: a few ticks' worth, so the stale-probe case recurs every tick.
const dupCreateNames = 300

// dupCreates is a six-client workload in which every created name is
// created twice, covering each way a create can meet its own duplicate:
//
//   - /dup/late (pinned to rank 1 by dupCreateScenario): client 0
//     creates f0000.. at half rate; client 1 creates the same names,
//     each behind a getattr served by rank 0, so the two reach a name
//     at different ticks and one's create is planned while the name is
//     absent and served after the other's create linked the inode.
//   - /dup/same: clients 2 and 3 create the same names at the same
//     rate at one rank; the second served must be handed the first's
//     inode.
//   - /dup/coll: clients 4 and 5 create two distinct names with equal
//     HashName in opposite orders, at one rank.
type dupCreates struct{}

func (dupCreates) Name() string { return "dup-creates" }

func (dupCreates) Setup(tree *namespace.Tree, clients int, _ *rng.Source) ([]workload.ClientSpec, error) {
	if clients != 6 {
		return nil, fmt.Errorf("dup-creates: needs 6 clients, got %d", clients)
	}
	var dirs [4]*namespace.Inode
	for i, p := range []string{"/dup/stat", "/dup/late", "/dup/same", "/dup/coll"} {
		d, err := tree.MkdirAll(p)
		if err != nil {
			return nil, err
		}
		dirs[i] = d
	}
	x, err := tree.Create(dirs[0], "x", 0)
	if err != nil {
		return nil, err
	}
	creates := func(dir *namespace.Inode, prefix string, statFirst bool) []workload.Op {
		var ops []workload.Op
		for i := 0; i < dupCreateNames; i++ {
			if statFirst {
				ops = append(ops, workload.Op{Kind: workload.OpGetattr, Target: x})
			}
			ops = append(ops, workload.Op{Kind: workload.OpCreate, Parent: dir, Name: fmt.Sprintf("%s%04d", prefix, i)})
		}
		return ops
	}
	a, b := collidingNames()
	coll := func(names ...string) []workload.Op {
		var ops []workload.Op
		for _, n := range names {
			ops = append(ops, workload.Op{Kind: workload.OpCreate, Parent: dirs[3], Name: n})
		}
		return ops
	}
	lists := [][]workload.Op{
		creates(dirs[1], "f", false),
		creates(dirs[1], "f", true),
		creates(dirs[2], "g", false),
		creates(dirs[2], "g", false),
		coll(a, b, a),
		coll(b, a, b),
	}
	specs := make([]workload.ClientSpec, len(lists))
	for i, ops := range lists {
		specs[i] = workload.ClientSpec{Stream: workload.NewOpList(ops), RateScale: 1}
	}
	specs[0].RateScale = 0.5
	return specs, nil
}

// collidingNames returns the first two distinct names "k<i>" with equal
// HashName: a birthday search over a 32-bit hash needs ~80k candidates.
func collidingNames() (string, string) {
	seen := make(map[uint32]string)
	for i := 0; ; i++ {
		n := fmt.Sprintf("k%d", i)
		h := namespace.HashName(n)
		if m, ok := seen[h]; ok {
			return m, n
		}
		seen[h] = n
	}
}

// dupCreateScenario configures the duplicate-create run; batching
// selects the write-back strategy, which serves the same creates a
// batch at a time.
func dupCreateScenario(batching *BatchingConfig) func(*Config) func(*Cluster) {
	return func(cfg *Config) func(*Cluster) {
		cfg.MDS = 2
		cfg.Clients = 6
		cfg.Seed = 11
		cfg.Workload = dupCreates{}
		cfg.Batching = batching
		return func(c *Cluster) {
			if err := c.PinPath("/dup/late", 1); err != nil {
				panic(err)
			}
		}
	}
}

// deepCreates is one client creating files in /a/b, so that a request
// with a cold authority cache relays through the ranks of / and /a.
type deepCreates struct{}

func (deepCreates) Name() string { return "deep-creates" }

func (deepCreates) Setup(tree *namespace.Tree, clients int, _ *rng.Source) ([]workload.ClientSpec, error) {
	if clients != 1 {
		return nil, fmt.Errorf("deep-creates: needs 1 client, got %d", clients)
	}
	dir, err := tree.MkdirAll("/a/b")
	if err != nil {
		return nil, err
	}
	ops := make([]workload.Op, 100)
	for i := range ops {
		ops[i] = workload.Op{Kind: workload.OpCreate, Parent: dir, Name: fmt.Sprintf("f%d", i)}
	}
	return []workload.ClientSpec{{Stream: workload.NewOpList(ops), RateScale: 1}}, nil
}

// TestStalledCreateNotAdopted: a create that stalls at serve leaves the
// tree as it was, whether its authority is down or a rank its request
// relays through is. The file is linked only once the op is served.
func TestStalledCreateNotAdopted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) *Cluster
	}{
		{"authority down", func(t *testing.T) *Cluster {
			c := newTestCluster(t, Config{MDS: 2, Clients: 1, Seed: 11, Workload: smallMD()})
			c.Run(5)
			if !c.CrashMDS(0) {
				t.Fatal("crash refused")
			}
			return c
		}},
		{"relay hop down", func(t *testing.T) *Cluster {
			c := newTestCluster(t, Config{MDS: 3, Clients: 1, Seed: 11, Workload: deepCreates{}})
			if err := c.PinPath("/a", 1); err != nil {
				t.Fatal(err)
			}
			if err := c.PinPath("/a/b", 2); err != nil {
				t.Fatal(err)
			}
			if !c.CrashMDS(1) {
				t.Fatal("crash refused")
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.setup(t)
			inodes, done := c.Tree().NumInodes(), c.Clients()[0].OpsDone()
			c.Step()
			if n := c.Clients()[0].OpsDone(); n != done {
				t.Fatalf("%d ops served with a rank on their path down", n-done)
			}
			if n := c.Tree().NumInodes(); n != inodes {
				t.Errorf("a stalled create added %d inodes to the tree", n-inodes)
			}
		})
	}
}

// TestDuplicateCreates pins what a create does when its name is taken
// between plan and serve, or created twice in one phase: exactly one
// inode per name, no raced creates (each name is valid, and a create of
// a taken name is served as the existing inode, so it counts once, as
// served) and ops conservation under the every-tick
// auditor, whatever the ignored Config.Workers holds.
func TestDuplicateCreates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		batching *BatchingConfig
	}{
		{"sync", nil},
		{"write-back", &BatchingConfig{BatchSize: 8, FlushEvery: 2}},
	} {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				aud := audit.New(audit.Options{EveryTick: true})
				cfg := Config{Workers: workers, Audit: aud}
				after := dupCreateScenario(tc.batching)(&cfg)
				c := newTestCluster(t, cfg)
				after(c)
				c.RunUntilDone(30000)
				if !c.Done() {
					t.Fatal("clients must finish")
				}
				for _, v := range aud.Violations() {
					t.Errorf("audit violation: %s", v)
				}
				a, b := collidingNames()
				for path, want := range map[string]int{"/dup/late": dupCreateNames, "/dup/same": dupCreateNames, "/dup/coll": 2} {
					dir, err := c.Tree().Lookup(path)
					if err != nil {
						t.Fatal(err)
					}
					if dir.NumChildren() != want {
						t.Errorf("%s holds %d inodes, want one per name = %d", path, dir.NumChildren(), want)
					}
					for _, ch := range dir.Children() {
						if dir.Child(ch.Name) != ch {
							t.Errorf("%s/%s does not resolve to its own inode", path, ch.Name)
						}
					}
				}
				coll, _ := c.Tree().Lookup("/dup/coll")
				if ca, cb := coll.Child(a), coll.Child(b); ca == nil || cb == nil || ca == cb {
					t.Errorf("colliding names %q, %q resolve to %p, %p", a, b, ca, cb)
				}
				if c.racedCreates != 0 {
					t.Errorf("racedCreates = %d, want 0", c.racedCreates)
				}
				var done int64
				for _, cl := range c.Clients() {
					done += cl.OpsDone()
				}
				if want := int64(5*dupCreateNames + 6); done != want {
					t.Errorf("clients completed %d ops, want %d", done, want)
				}
			})
		}
	}
}
