package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// The batched experiment prices the write-back client mode on a
// server-bound cluster: 4 ranks at the default 2000 ops/tick against 64
// clients issuing 150 ops/tick (9600 demand vs 8000 budget).
// Synchronously the budget caps throughput at capacity; with group
// commit a budget unit admits a whole batch, so the amortized
// resolve/heat/authority work turns directly into job-completion time.
// Cells: the MDtest create-heavy workload sync and at B=8/B=32, and the
// CNN ingest scan sync and at B=32. Every cell must finish, and runs the
// full auditor wiring of runCells, so "zero audit violations" is part of
// the result, not a side claim.
const (
	batchedRanks   = 4
	batchedClients = 64
)

var expBatched = entry{
	id: "batched", title: "Extension: write-back client batching with group commit vs synchronous ops (MDtest + CNN ingest)",
	scenario: &scenario{func(opt Options) []cell {
		mdtest := func() workload.Generator {
			return workload.NewMD(workload.MDConfig{
				CreatesPerClient: scaledMin(4000, opt.Scale, 2000),
				DirsPerClient:    4,
				StatEvery:        64,
			})
		}
		cnn := func() workload.Generator { return paper("CNN", opt) }
		on := func(name, key string, gen func() workload.Generator, batching *cluster.BatchingConfig) cell {
			return cell{labels: []string{name}, key: key, mustFinish: true, bal: "Lunule", gen: gen,
				shape: cluster.Config{MDS: batchedRanks, Clients: batchedClients, Batching: batching}}
		}
		return []cell{
			on("MDtest sync", "md.sync", mdtest, nil),
			on("MDtest B=8", "md.b8", mdtest, &cluster.BatchingConfig{BatchSize: 8, FlushEvery: 4}),
			on("MDtest B=32", "md.b32", mdtest, &cluster.BatchingConfig{BatchSize: 32, FlushEvery: 8}),
			on("CNN sync", "cnn.sync", cnn, nil),
			on("CNN B=32", "cnn.b32", cnn, &cluster.BatchingConfig{BatchSize: 32, FlushEvery: 8}),
		}
	}},
	cols: []column[*run]{label("cell", 0), colJCT50,
		num("JCT p99", ".jct99", fi, jct(0.99)),
		num("mean IOPS", ".iops", fi, meanIOPS),
		num("flushes", ".flushes", fi, func(r *run) float64 { return float64(r.Metrics().BatchFlushes()) }),
		num("batch mean", ".batch_mean", f1, func(r *run) float64 { return r.Metrics().MeanBatchSize() }),
		shown("flush p99", fi, func(r *run) float64 { return r.Metrics().FlushAgeQuantile(0.99) }),
		colFinished},
	ratios: [][3]string{{"md.speedup_b32", "md.sync.jct50", "md.b32.jct50"}},
	report: func(res *Result, _ Options, _ []*run) error {
		if v, ok := res.Values["md.speedup_b32"]; ok {
			res.note(fmt.Sprintf("MDtest JCT p50 speedup at B=32: %.2fx over synchronous ops", v))
		}
		return nil
	},
	notes: []string{
		fmt.Sprintf("server-bound cells: %d clients x 150 ops/tick vs %d ranks x 2000 budget; a commit group of B ops costs one budget unit", batchedClients, batchedRanks),
		"flush latency bounded by FlushEvery; the tail flush drains short final runs"},
}
