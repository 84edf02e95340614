package cluster

import (
	"fmt"
	"testing"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// matrixLiveness are the two liveness rows every balancer also runs on
// the zipf workload: a crash and recovery of rank 1 (rank 0's ring
// neighbour, so GreedySpill must walk to the next importable rank),
// and a drain of rank 0 (the rank every workload starts on, so the
// policy has a loaded exporter it must leave to the drain pump). The
// matrix's own zipf cell finishes inside two epochs, so these rows run
// a longer stream against slower ranks and span some twenty epochs.
var matrixLiveness = map[string]func(*Config) func(*Cluster){
	"crash": func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(40, 1).Recover(120, 1)
		cfg.Faults = &sched
		cfg.Workload, cfg.Capacity = failoverZipf(), 300
		return nil
	},
	"drain": func(cfg *Config) func(*Cluster) {
		cfg.Workload, cfg.Capacity = failoverZipf(), 300
		return func(c *Cluster) { c.events.schedule(60, func() { c.StartDrain(0) }) }
	},
}

// TestBalancerWorkloadMatrix runs every balancer against every
// workload at tiny scale, plus the two liveness rows, and checks the
// universal invariants — the run completes, no operations are lost,
// governed subtree sizes stay consistent, the JCT count matches the
// client count — and the cell's two pins: matrix/<cell>/csv over the
// per-tick and per-epoch CSVs, matrix/<cell>/trace over the JSONL.
func TestBalancerWorkloadMatrix(t *testing.T) {
	balancers := map[string]func() balancer.Balancer{
		"vanilla":     func() balancer.Balancer { return balancer.NewVanilla() },
		"greedyspill": func() balancer.Balancer { return balancer.NewGreedySpill() },
		"dirhash":     func() balancer.Balancer { return balancer.NewDirHash() },
		"light":       func() balancer.Balancer { return core.NewLight() },
		"lunule":      func() balancer.Balancer { return core.NewDefault() },
	}
	workloads := map[string]func() workload.Generator{
		"cnn": func() workload.Generator {
			return workload.NewCNN(workload.CNNConfig{Dirs: 20, FilesPerDir: 8})
		},
		"nlp": func() workload.Generator {
			return workload.NewNLP(workload.NLPConfig{Dirs: 6, FilesPerDir: 40})
		},
		"web": func() workload.Generator {
			return workload.NewWeb(workload.WebConfig{Files: 600, RequestsPerClient: 1500})
		},
		"zipf": func() workload.Generator {
			return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 100, OpsPerClient: 2500})
		},
		"md": func() workload.Generator {
			return workload.NewMD(workload.MDConfig{CreatesPerClient: 1200})
		},
		"mdshared": func() workload.Generator {
			return workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 1200})
		},
	}
	cells := map[string]func(*Config) func(*Cluster){}
	for wName, mk := range workloads {
		cells[wName] = func(cfg *Config) func(*Cluster) {
			cfg.Workload = mk()
			return nil
		}
	}
	for lName, l := range matrixLiveness {
		cells["zipf+"+lName] = l
	}
	for bName, mkB := range balancers {
		for cName, cell := range cells {
			name := fmt.Sprintf("%s/%s", bName, cName)
			t.Run(name, func(t *testing.T) {
				r := runScenario(t, scenario{config: func(cfg *Config) func(*Cluster) {
					cfg.Balancer, cfg.Clients, cfg.Seed = mkB(), 8, 17
					return cell(cfg)
				}}, nil)
				c := r.c
				var clientOps, served int64
				for _, cl := range c.Clients() {
					clientOps += cl.OpsDone()
				}
				for _, s := range c.Servers() {
					served += s.OpsTotal()
				}
				if clientOps != served {
					t.Fatalf("ops lost: clients %d vs served %d", clientOps, served)
				}
				total := 0
				for _, sz := range c.Partition().SubtreeSizes() {
					if sz < 0 {
						t.Fatal("negative governed size")
					}
					total += sz
				}
				if total != c.Tree().NumInodes() {
					t.Fatalf("partition accounts %d of %d inodes", total, c.Tree().NumInodes())
				}
				if len(c.Metrics().JCT) != 8 {
					t.Fatalf("JCT count = %d", len(c.Metrics().JCT))
				}
				simtest.Pin(t, "matrix/"+name+"/csv", digest(r.csv))
				simtest.Pin(t, "matrix/"+name+"/trace", digest(r.trace))
			})
		}
	}
}

func TestPinPath(t *testing.T) {
	c := newTestCluster(t, Config{})
	if err := c.PinPath("/zipf/client000", 3); err != nil {
		t.Fatal(err)
	}
	dir, _ := c.Tree().Lookup("/zipf/client000")
	if c.Partition().AuthOf(dir.Children()[0]) != 3 {
		t.Fatal("pinned subtree not on the requested rank")
	}
	if err := c.PinPath("/nope", 0); err == nil {
		t.Fatal("pinning a missing path must error")
	}
	if err := c.PinPath("/zipf/client000", 99); err == nil {
		t.Fatal("pinning to an invalid rank must error")
	}
	if err := c.PinPath("/zipf/client000/file00000", 0); err == nil {
		t.Fatal("pinning a file must error")
	}
}
