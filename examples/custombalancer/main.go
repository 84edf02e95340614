// Custom balancer: the balancer.Balancer interface plays the role
// Mantle's programmable API plays in the paper — third parties can plug
// their own when/how-much/where policies into the metadata service.
// This example implements a tiny "water-filling" policy (move load from
// the fullest to the emptiest MDS whenever the gap exceeds 25%) and
// runs it against Lunule on the MDtest create workload.
//
//	go run ./examples/custombalancer
package main

import (
	"fmt"
	"log"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/namespace"
	"repro/internal/workload"
)

// waterFill is a user-provided policy: one exporter, one importer, a
// quarter of the gap per epoch, hottest subtrees first.
type waterFill struct{}

func (waterFill) Name() string { return "WaterFill" }

func (waterFill) Rebalance(v balancer.View) {
	loads := balancer.Loads(v)
	hi, lo := 0, 0
	for i, l := range loads {
		if l > loads[hi] {
			hi = i
		}
		if l < loads[lo] {
			lo = i
		}
	}
	if loads[hi] == 0 || hi == lo {
		return
	}
	gap := loads[hi] - loads[lo]
	if gap < 0.25*loads[hi] {
		return // tolerate small gaps
	}
	// Ship a quarter of the gap, selected by subtree heat.
	fraction := gap / 4 / loads[hi]
	for _, c := range balancer.HeatSelect(v, namespace.MDSID(hi), fraction, 64) {
		balancer.SubmitCandidate(v, c, namespace.MDSID(hi), namespace.MDSID(lo))
	}
}

func main() {
	for _, bal := range []balancer.Balancer{
		waterFill{},
		// The paper's Lunule; the zero Config is Lunule-Light, and the
		// other three fields are the ablation switches.
		core.New(core.Config{WorkloadAware: true}),
	} {
		c, err := cluster.New(cluster.Config{
			Clients:  40,
			Balancer: bal,
			Workload: workload.NewMD(workload.MDConfig{CreatesPerClient: 20000}),
			Seed:     3,
		})
		if err != nil {
			log.Fatal(err)
		}
		c.RunUntilDone(5000)
		rec := c.Metrics()
		fmt.Printf("%-20s meanIF=%.3f meanIOPS=%.0f jct(p50/p99)=%.0f/%.0f migrated=%.0f\n",
			bal.Name(), rec.MeanIF(), rec.MeanThroughput(),
			rec.JCTQuantile(0.5), rec.JCTQuantile(0.99), rec.MigratedTotal())
	}
	fmt.Println("\nany type with Name() and Rebalance(balancer.View) can drive the cluster")
}
