// Package metrics records and summarizes what the experiments measure:
// per-MDS and aggregate throughput series, imbalance-factor series,
// cumulative migrated inodes, forwarding counts, and job completion
// times — the quantities behind every figure of the paper's evaluation.
package metrics

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Recorder accumulates one simulation run's measurements.
type Recorder struct {
	// PerMDS[i] is MDS i's served ops per tick (IOPS, ticks are 1s).
	PerMDS []*stats.Series
	// Agg is the cluster-aggregate IOPS per tick.
	Agg stats.Series
	// IF is the per-epoch imbalance factor (stamped with the tick).
	IF stats.Series
	// CoV is the per-epoch raw coefficient of variation.
	CoV stats.Series
	// Migrated is the cumulative migrated-inode count per tick.
	Migrated stats.Series
	// Forwards is the cumulative inter-MDS forward count per tick.
	Forwards stats.Series
	// JCT holds each finished client's completion tick.
	JCT []float64

	// StalledDown is the cumulative count of op attempts that stalled
	// because the authoritative (or a relaying) rank was down.
	StalledDown stats.Series
	// Aborted is the cumulative count of exports aborted by crashes.
	Aborted stats.Series
	// Recovery is the cumulative count of orphaned rank-ticks: each
	// tick adds one per crashed rank whose subtrees are still awaiting
	// takeover (the unavailability the recovery window buys).
	Recovery stats.Series

	recoveries []RecoveryEvent

	// latency histograms per-op service latency in ticks.
	latency histogram

	// Write-back batching counters (zero unless the run used write-back
	// clients). batchSize histograms the op count of flushed batches
	// (index i counts batches of i+1 ops, overflow in the last slot);
	// flushAge histograms how many ticks the batch's oldest op was
	// buffered before the flush.
	batchFlushes  int64
	batchCommits  int64
	batchRequeues int64
	batchOps      int64
	batchSize     [maxLatencyBucket]int64
	flushAge      [maxLatencyBucket]int64

	// Per-tenant measurements (empty unless the run used tenant QoS):
	// tenantJCT[t] holds tenant t's client completion ticks, tenantLat[t]
	// accumulates tenant t's op-latency histogram. Sized by SetTenants.
	tenantJCT [][]float64
	tenantLat []histogram
}

// RecoveryEvent records one completed failover takeover.
type RecoveryEvent struct {
	// Rank is the crashed MDS rank whose subtrees were reassigned.
	Rank int
	// CrashTick is when the rank went down.
	CrashTick int64
	// ReassignTick is when its orphaned subtrees moved to survivors.
	ReassignTick int64
	// Entries is how many subtree entries were reassigned.
	Entries int
	// Warm marks a warm-standby promotion (replication) instead of a
	// cold orphan takeover.
	Warm bool
}

// TicksToReassign returns the outage window before takeover.
func (e RecoveryEvent) TicksToReassign() int64 { return e.ReassignTick - e.CrashTick }

// maxLatencyBucket caps the latency histogram (ops slower than this
// land in the overflow slot).
const maxLatencyBucket = 256

// NewRecorder creates a recorder for an n-MDS cluster.
func NewRecorder(n int) *Recorder {
	r := &Recorder{}
	r.GrowMDS(n)
	return r
}

// GrowMDS extends the per-MDS series set to at least n.
func (r *Recorder) GrowMDS(n int) {
	for len(r.PerMDS) < n {
		r.PerMDS = append(r.PerMDS, &stats.Series{})
	}
}

// SampleTick records one tick's served ops per MDS plus the cumulative
// migration and forwarding counters.
func (r *Recorder) SampleTick(tick int64, perMDS []int, migrated, forwards int64) {
	r.GrowMDS(len(perMDS))
	total := 0
	for i, v := range perMDS {
		r.PerMDS[i].Append(tick, float64(v))
		total += v
	}
	r.Agg.Append(tick, float64(total))
	r.Migrated.Append(tick, float64(migrated))
	r.Forwards.Append(tick, float64(forwards))
}

// SampleFaults records one tick's cumulative fault counters: ops
// stalled on down ranks, exports aborted by crashes, and orphaned
// rank-ticks spent waiting for takeover.
func (r *Recorder) SampleFaults(tick int64, stalledDown, aborted, recoveryTicks int64) {
	r.StalledDown.Append(tick, float64(stalledDown))
	r.Aborted.Append(tick, float64(aborted))
	r.Recovery.Append(tick, float64(recoveryTicks))
}

// AddRecovery records a completed failover takeover.
func (r *Recorder) AddRecovery(ev RecoveryEvent) {
	r.recoveries = append(r.recoveries, ev)
}

// RecoveryEvents returns the recorded takeovers (shared slice; callers
// must not modify it).
func (r *Recorder) RecoveryEvents() []RecoveryEvent { return r.recoveries }

// StalledDownTotal returns the final stalled-on-down count.
func (r *Recorder) StalledDownTotal() float64 { return r.StalledDown.Last() }

// AbortedTotal returns the final crash-aborted export count.
func (r *Recorder) AbortedTotal() float64 { return r.Aborted.Last() }

// RecoveryTicksTotal returns the final orphaned rank-tick count.
func (r *Recorder) RecoveryTicksTotal() float64 { return r.Recovery.Last() }

// WarmRecoveries counts the recorded warm-standby promotions.
func (r *Recorder) WarmRecoveries() int {
	n := 0
	for _, ev := range r.recoveries {
		if ev.Warm {
			n++
		}
	}
	return n
}

// MeanTicksToReassign returns the mean outage window across recorded
// takeovers (0 when none happened).
func (r *Recorder) MeanTicksToReassign() float64 {
	if len(r.recoveries) == 0 {
		return 0
	}
	sum := 0.0
	for _, ev := range r.recoveries {
		sum += float64(ev.TicksToReassign())
	}
	return sum / float64(len(r.recoveries))
}

// SampleEpoch records the epoch-boundary imbalance evaluation.
func (r *Recorder) SampleEpoch(tick int64, ifv, cov float64) {
	r.IF.Append(tick, ifv)
	r.CoV.Append(tick, cov)
}

// AddJCT records a client completion time.
func (r *Recorder) AddJCT(tick int64) { r.JCT = append(r.JCT, float64(tick)) }

// histogram counts op latencies in ticks: counts[i] is the number of
// ops completed with latency i+1; the final slot is the overflow bucket.
type histogram struct {
	counts [maxLatencyBucket]int64
	n      int64
	sum    int64
}

// add records one latency, clamped to >= 1.
func (h *histogram) add(ticks int64) {
	if ticks < 1 {
		ticks = 1
	}
	h.counts[min(ticks-1, maxLatencyBucket-1)]++
	h.n++
	h.sum += ticks
}

// mean returns the average latency (0 when empty).
func (h *histogram) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile latency; the overflow bucket reports
// the cap.
func (h *histogram) quantile(q float64) float64 {
	return stats.QuantileOfCounts(h.counts[:], func(i int) float64 { return float64(i + 1) }, q)
}

// AddLatency records one op's service latency in ticks (>= 1).
func (r *Recorder) AddLatency(ticks int64) { r.latency.add(ticks) }

// AddTenantLatency records one op's service latency under tenant t.
func (r *Recorder) AddTenantLatency(t int, ticks int64) {
	if t >= 0 && t < len(r.tenantLat) {
		r.tenantLat[t].add(ticks)
	}
}

// SetTenants sizes the per-tenant measurement slots (idempotent, never
// shrinks). Zero tenants — the default — keeps the recorder free of any
// per-tenant state.
func (r *Recorder) SetTenants(n int) {
	if n <= len(r.tenantLat) {
		return
	}
	lat := make([]histogram, n)
	copy(lat, r.tenantLat)
	r.tenantLat = lat
	jct := make([][]float64, n)
	copy(jct, r.tenantJCT)
	r.tenantJCT = jct
}

// Tenants returns how many tenants the recorder tracks (0 when the run
// was single-tenant).
func (r *Recorder) Tenants() int { return len(r.tenantLat) }

// AddTenantJCT records a client completion time under its tenant.
func (r *Recorder) AddTenantJCT(t int, tick int64) {
	if t >= 0 && t < len(r.tenantJCT) {
		r.tenantJCT[t] = append(r.tenantJCT[t], float64(tick))
	}
}

// TenantJCTCount returns how many of tenant t's clients have finished.
func (r *Recorder) TenantJCTCount(t int) int {
	if t < 0 || t >= len(r.tenantJCT) {
		return 0
	}
	return len(r.tenantJCT[t])
}

// TenantJCTQuantile returns the q-quantile completion time of tenant
// t's clients (0 when none finished).
func (r *Recorder) TenantJCTQuantile(t int, q float64) float64 {
	if t < 0 || t >= len(r.tenantJCT) {
		return 0
	}
	return stats.Percentile(r.tenantJCT[t], q)
}

// TenantMeanLatency returns tenant t's average op latency in ticks.
func (r *Recorder) TenantMeanLatency(t int) float64 {
	if t < 0 || t >= len(r.tenantLat) {
		return 0
	}
	return r.tenantLat[t].mean()
}

// TenantLatencyQuantile returns the q-quantile op latency of tenant t.
func (r *Recorder) TenantLatencyQuantile(t int, q float64) float64 {
	if t < 0 || t >= len(r.tenantLat) {
		return 0
	}
	return r.tenantLat[t].quantile(q)
}

// MeanLatency returns the average op latency in ticks (0 if none).
func (r *Recorder) MeanLatency() float64 { return r.latency.mean() }

// LatencyQuantile returns the q-quantile op latency in ticks from the
// histogram (the overflow bucket reports the cap). It uses the same
// interpolated quantile definition as stats.Percentile, so histogram
// quantiles agree exactly with quantiles of the raw latency sample.
func (r *Recorder) LatencyQuantile(q float64) float64 { return r.latency.quantile(q) }

// AddBatchFlush records one write-back batch flushed into a rank's
// group-commit journal: its op count and the buffering age (ticks since
// the batch's oldest op was drawn) feed the batch-size and flush-age
// histograms.
func (r *Recorder) AddBatchFlush(n int, age int64) {
	r.batchFlushes++
	r.batchOps += int64(n)
	idx := n - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= maxLatencyBucket {
		idx = maxLatencyBucket - 1
	}
	r.batchSize[idx]++
	if age < 0 {
		age = 0
	}
	if age >= maxLatencyBucket {
		age = maxLatencyBucket - 1
	}
	r.flushAge[age]++
}

// AddBatchCommit records one batch (or batch-prefix) application by the
// serve phase.
func (r *Recorder) AddBatchCommit() { r.batchCommits++ }

// AddBatchRequeue records one batch dropped at rank crash and re-queued
// client-side.
func (r *Recorder) AddBatchRequeue() { r.batchRequeues++ }

// BatchFlushes returns how many write-back batches were flushed.
func (r *Recorder) BatchFlushes() int64 { return r.batchFlushes }

// BatchCommits returns how many batch applications the serve phase ran.
func (r *Recorder) BatchCommits() int64 { return r.batchCommits }

// BatchRequeues returns how many batches crashes dropped back to their
// clients.
func (r *Recorder) BatchRequeues() int64 { return r.batchRequeues }

// MeanBatchSize returns the average op count of flushed batches (0 when
// no batches were flushed).
func (r *Recorder) MeanBatchSize() float64 {
	if r.batchFlushes == 0 {
		return 0
	}
	return float64(r.batchOps) / float64(r.batchFlushes)
}

// BatchSizeQuantile returns the q-quantile flushed-batch op count.
func (r *Recorder) BatchSizeQuantile(q float64) float64 {
	return stats.QuantileOfCounts(r.batchSize[:], func(i int) float64 { return float64(i + 1) }, q)
}

// FlushAgeQuantile returns the q-quantile flush age in ticks.
func (r *Recorder) FlushAgeQuantile(q float64) float64 {
	return stats.QuantileOfCounts(r.flushAge[:], func(i int) float64 { return float64(i) }, q)
}

// MeanIF returns the run's average imbalance factor.
func (r *Recorder) MeanIF() float64 { return r.IF.MeanValue() }

// TailIF returns the mean IF of the last k epochs.
func (r *Recorder) TailIF(k int) float64 { return r.IF.Tail(k) }

// PeakThroughput returns the maximum window-averaged aggregate IOPS
// (window in ticks), the "peak throughput" of Figures 7 and 13.
func (r *Recorder) PeakThroughput(window int) float64 {
	if window < 1 {
		window = 1
	}
	vals := r.Agg.Values
	if len(vals) == 0 {
		return 0
	}
	if window > len(vals) {
		window = len(vals)
	}
	sum := 0.0
	for _, v := range vals[:window] {
		sum += v
	}
	best := sum
	for i := window; i < len(vals); i++ {
		sum += vals[i] - vals[i-window]
		if sum > best {
			best = sum
		}
	}
	return best / float64(window)
}

// MeanThroughput returns the run-average aggregate IOPS over the ticks
// where any work happened (trailing idle ticks excluded).
func (r *Recorder) MeanThroughput() float64 {
	vals := r.Agg.Values
	end := len(vals)
	for end > 0 && vals[end-1] == 0 {
		end--
	}
	if end == 0 {
		return 0
	}
	return stats.Mean(vals[:end])
}

// TotalOps returns the total ops served across the run.
func (r *Recorder) TotalOps() float64 { return stats.Sum(r.Agg.Values) }

// ShareOfRequests returns each MDS's fraction of all served requests
// (Figure 2's distribution).
func (r *Recorder) ShareOfRequests() []float64 {
	total := r.TotalOps()
	out := make([]float64, len(r.PerMDS))
	if total == 0 {
		return out
	}
	for i, s := range r.PerMDS {
		out[i] = stats.Sum(s.Values) / total
	}
	return out
}

// JCTQuantile returns the q-quantile job completion time.
func (r *Recorder) JCTQuantile(q float64) float64 {
	return stats.Percentile(r.JCT, q)
}

// JCTQuantiles returns several quantiles of the job-completion-time
// distribution with a single sort (see stats.Percentiles).
func (r *Recorder) JCTQuantiles(qs ...float64) []float64 {
	return stats.Percentiles(r.JCT, qs...)
}

// MigratedTotal returns the final cumulative migrated-inode count.
func (r *Recorder) MigratedTotal() float64 { return r.Migrated.Last() }

// ForwardsTotal returns the final cumulative forward count.
func (r *Recorder) ForwardsTotal() float64 { return r.Forwards.Last() }

// Downsample returns (tick, value) pairs of the series averaged into at
// most buckets windows — compact series for textual figure output.
func Downsample(s *stats.Series, buckets int) [][2]float64 {
	n := s.Len()
	if n == 0 || buckets <= 0 {
		return nil
	}
	if buckets > n {
		buckets = n
	}
	out := make([][2]float64, 0, buckets)
	per := float64(n) / float64(buckets)
	for b := 0; b < buckets; b++ {
		lo := int(float64(b) * per)
		hi := int(float64(b+1) * per)
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += s.Values[i]
		}
		out = append(out, [2]float64{float64(s.Ticks[hi-1]), sum / float64(hi-lo)})
	}
	return out
}

// FormatSeries renders a downsampled series as "t=v" pairs.
func FormatSeries(s *stats.Series, buckets int) string {
	var b strings.Builder
	for i, p := range Downsample(s, buckets) {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d=%.1f", int64(p[0]), p[1])
	}
	return b.String()
}

// Table renders rows as a fixed-width text table with a header.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
