package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/namespace"
	"repro/internal/workload"
)

// BenchmarkPlanSaturated prices the sync tick where it is saturated: one
// cohort of 8 clients offering 8 x 150 ops a tick to one rank that
// serves 400, so two of every three planned ops are cut by admission and
// planned again next tick. ns/planned-op and ns/served-op are whole-Step
// wall time over the ops the cohort routed and the ops admission let
// through. NLP issues 14 ops per file (a drawn op mostly shares the
// previous one's resolution); Zipf draws a different file every op;
// mdtest creates, so its served ops also pay a create each.
// version-moves carves and absorbs an empty directory every tick, so
// the partition version never stands and no resolution is carried: the
// slow side of the carried plan. Medians of alternating
// runs (five; mdtest three) at -benchtime 3000x on the 2-vCPU reference
// host (go1.24.0), change vs parent (42249c9; mdtest 8ac2b83, which
// probed a carried create's directory again in every plan),
// ns/planned-op (ns/served-op):
//
//	nlp/steady             42.9 (128.8)   122.2 (366.7)
//	nlp/version-moves      49.2 (147.6)   119.7 (359.0)
//	zipf/steady            69.9 (209.7)   111.8 (335.5)
//	zipf/version-moves     95.2 (285.5)   114.7 (344.2)
//	mdtest/steady         149.7 (435.1)   218.5 (635.3)
//	mdtest/version-moves  161.6 (469.9)   229.5 (667.1)
func BenchmarkPlanSaturated(b *testing.B) {
	for _, bc := range []struct {
		name  string
		gen   func() workload.Generator
		churn bool
	}{
		{"nlp/steady", planBenchNLP, false},
		{"nlp/version-moves", planBenchNLP, true},
		{"zipf/steady", planBenchZipf, false},
		{"zipf/version-moves", planBenchZipf, true},
		{"mdtest/steady", planBenchMD, false},
		{"mdtest/version-moves", planBenchMD, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var c *Cluster
			var idle *namespace.Inode
			var planned, served int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c == nil || c.Done() {
					b.StopTimer()
					var err error
					c, err = New(Config{MDS: 1, Clients: 8, Capacity: 400, Seed: 42,
						Balancer: core.NewDefault(), Workload: bc.gen()})
					if err != nil {
						b.Fatal(err)
					}
					if idle, err = c.Tree().MkdirAll("/idle"); err != nil {
						b.Fatal(err)
					}
					c.Run(20) // past the start spread: every client is cut every tick
					b.StartTimer()
				}
				if bc.churn {
					c.Partition().Absorb(c.Partition().Carve(idle).Key)
				}
				c.Step()
				// One rank: each client plans one run a tick, and admission
				// schedules it whole, cut or not.
				for _, u := range c.engine.sched {
					planned += int64(u.n)
					served += int64(u.adm)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(planned), "ns/planned-op")
			b.ReportMetric(ns/float64(served), "ns/served-op")
		})
	}
}

func planBenchNLP() workload.Generator {
	return workload.NewNLP(workload.NLPConfig{FilesPerDir: 1000})
}

// planBenchMD is 400 ticks of creates a build: the tree stays small
// enough to rebuild often and large enough that a probe misses cache.
func planBenchMD() workload.Generator {
	return workload.NewMD(workload.MDConfig{CreatesPerClient: 20000})
}

func planBenchZipf() workload.Generator {
	return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 1000, OpsPerClient: 1 << 30})
}
