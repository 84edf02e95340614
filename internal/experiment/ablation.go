package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register("ablation", "Ablation: contribution of each Lunule design choice", runAblation)
}

// runAblation quantifies the three design choices the paper argues for
// by turning each off in isolation:
//
//   - the urgency term (Eq. 2), measured by how many rebalances fire on
//     a lightly loaded, skewed cluster (benign imbalance);
//   - the sibling-correlation credit (§3.3), measured by CNN throughput
//     (it is what ships not-yet-visited subtrees ahead of the scan);
//   - the importer-side future-load gate of Algorithm 1, measured by
//     migration churn on the Zipf workload (it is the anti-ping-pong
//     mechanism).
func runAblation(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"variant", "scenario", "metric", "value",
	}}}

	// --- urgency: benign-imbalance scenario (light total load) -------
	for _, ab := range []struct {
		name string
		cfg  core.Config
	}{
		{"full Lunule", core.Config{WorkloadAware: true}},
		{"urgency off", core.Config{WorkloadAware: true, DisableUrgency: true}},
	} {
		lun := core.New(ab.cfg)
		c, err := cluster.New(cluster.Config{
			Clients:    10,
			ClientRate: 40, // ~20% of one MDS: harmless skew
			Balancer:   lun,
			Workload: workload.NewZipf(workload.ZipfConfig{
				OpsPerClient: scaledMin(8000, opt.Scale, 6000),
			}),
			Seed:  opt.Seed,
			Audit: opt.auditor(),
		})
		if err != nil {
			return nil, err
		}
		c.Run(150)
		if err := auditErr(c); err != nil {
			return nil, err
		}
		res.Table.Add(ab.name, "light load (benign skew)", "rebalances", fmt.Sprint(lun.Rebalances()))
		res.val("urgency/"+ab.name+".rebalances", float64(lun.Rebalances()))
		res.val("urgency/"+ab.name+".migrated", c.Metrics().MigratedTotal())
	}

	// --- sibling credit: CNN scan throughput --------------------------
	for _, ab := range []struct {
		name string
		cfg  core.Config
	}{
		{"full Lunule", core.Config{WorkloadAware: true}},
		{"sibling credit off", core.Config{WorkloadAware: true, DisableSiblingCredit: true}},
	} {
		c, err := runOne(opt, cluster.Config{
			Balancer: core.New(ab.cfg),
			Workload: MakeWorkload("CNN", opt.Scale),
		})
		if err != nil {
			return nil, err
		}
		rec := c.Metrics()
		res.Table.Add(ab.name, "CNN scan", "mean IOPS", fi(rec.MeanThroughput()))
		res.val("sibling/"+ab.name+".mean", rec.MeanThroughput())
		res.val("sibling/"+ab.name+".meanIF", rec.MeanIF())
	}

	// --- importer gate: migration churn on Zipf ------------------------
	for _, ab := range []struct {
		name string
		cfg  core.Config
	}{
		{"full Lunule", core.Config{WorkloadAware: true}},
		{"importer gate off", core.Config{WorkloadAware: true, DisableImporterGate: true}},
	} {
		c, err := runOne(opt, cluster.Config{
			Balancer: core.New(ab.cfg),
			Workload: MakeWorkload("Zipf", opt.Scale),
		})
		if err != nil {
			return nil, err
		}
		rec := c.Metrics()
		res.Table.Add(ab.name, "Zipf reads", "migrated inodes", fi(rec.MigratedTotal()))
		res.val("gate/"+ab.name+".migrated", rec.MigratedTotal())
		res.val("gate/"+ab.name+".jct50", rec.JCTQuantile(0.5))
	}

	res.Notes = append(res.Notes,
		"urgency off fires migrations on harmless skew that full Lunule tolerates (the paper's benign-imbalance claim)",
		"sibling credit off barely moves CNN here: dirfrag slicing already ships unvisited content structurally (a hash slice of a scan region carries its share of not-yet-visited directories regardless of their index) — a reproduction finding, see EXPERIMENTS.md",
		"importer gate off changes Zipf churn only marginally at this scale; the Cap ceiling absorbs most over-import pressure")
	return res, nil
}
