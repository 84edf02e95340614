package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(3)
	r.SampleTick(0, []int{100, 50, 0}, 10, 2)
	r.SampleTick(1, []int{100, 100, 100}, 20, 4)
	if r.Agg.Len() != 2 {
		t.Fatal("agg samples")
	}
	if r.Agg.Values[0] != 150 || r.Agg.Values[1] != 300 {
		t.Fatalf("agg values %v", r.Agg.Values)
	}
	if r.MigratedTotal() != 20 || r.ForwardsTotal() != 4 {
		t.Fatal("counters")
	}
	if r.TotalOps() != 450 {
		t.Fatalf("total ops %v", r.TotalOps())
	}
}

func TestRecorderGrowMDS(t *testing.T) {
	r := NewRecorder(2)
	r.SampleTick(0, []int{10, 20}, 0, 0)
	// Cluster expansion: more MDSs mid-run.
	r.SampleTick(1, []int{10, 20, 30}, 0, 0)
	if len(r.PerMDS) != 3 {
		t.Fatal("per-MDS series must grow")
	}
	if r.PerMDS[2].Len() != 1 {
		t.Fatal("new MDS series starts at its join tick")
	}
}

func TestShareOfRequests(t *testing.T) {
	r := NewRecorder(2)
	r.SampleTick(0, []int{75, 25}, 0, 0)
	share := r.ShareOfRequests()
	if math.Abs(share[0]-0.75) > 1e-9 || math.Abs(share[1]-0.25) > 1e-9 {
		t.Fatalf("share = %v", share)
	}
	empty := NewRecorder(2)
	if s := empty.ShareOfRequests(); s[0] != 0 || s[1] != 0 {
		t.Fatal("empty share")
	}
}

func TestPeakThroughputWindow(t *testing.T) {
	r := NewRecorder(1)
	vals := []int{0, 10, 10, 10, 0, 0}
	for i, v := range vals {
		r.SampleTick(int64(i), []int{v}, 0, 0)
	}
	if got := r.PeakThroughput(1); got != 10 {
		t.Fatalf("peak(1) = %v", got)
	}
	if got := r.PeakThroughput(3); math.Abs(got-10) > 1e-9 {
		t.Fatalf("peak(3) = %v", got)
	}
	if got := r.PeakThroughput(6); math.Abs(got-30.0/6.0) > 1e-9 {
		t.Fatalf("peak(6) = %v", got)
	}
	if got := r.PeakThroughput(100); math.Abs(got-30.0/6.0) > 1e-9 {
		t.Fatal("window larger than series must clamp")
	}
	if NewRecorder(1).PeakThroughput(5) != 0 {
		t.Fatal("empty peak")
	}
}

func TestMeanThroughputIgnoresTrailingIdle(t *testing.T) {
	r := NewRecorder(1)
	for i, v := range []int{10, 20, 0, 0, 0} {
		r.SampleTick(int64(i), []int{v}, 0, 0)
	}
	if got := r.MeanThroughput(); got != 15 {
		t.Fatalf("mean = %v", got)
	}
	if NewRecorder(1).MeanThroughput() != 0 {
		t.Fatal("empty mean")
	}
}

func TestJCTQuantiles(t *testing.T) {
	r := NewRecorder(1)
	for _, tck := range []int64{10, 20, 30, 40, 100} {
		r.AddJCT(tck)
	}
	if got := r.JCTQuantile(0.5); got != 30 {
		t.Fatalf("p50 = %v", got)
	}
}

func TestEpochSampling(t *testing.T) {
	r := NewRecorder(1)
	r.SampleEpoch(9, 0.5, 1.1)
	r.SampleEpoch(19, 0.1, 0.2)
	if r.MeanIF() != 0.3 {
		t.Fatalf("meanIF = %v", r.MeanIF())
	}
	if r.TailIF(1) != 0.1 {
		t.Fatalf("tailIF = %v", r.TailIF(1))
	}
}

func TestLatencyHistogram(t *testing.T) {
	r := NewRecorder(1)
	// 90 fast ops, 9 medium, 1 slow.
	for i := 0; i < 90; i++ {
		r.AddLatency(1)
	}
	for i := 0; i < 9; i++ {
		r.AddLatency(5)
	}
	r.AddLatency(40)
	if got := r.LatencyQuantile(0.5); got != 1 {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.LatencyQuantile(0.95); got != 5 {
		t.Fatalf("p95 = %v", got)
	}
	if got := r.LatencyQuantile(1); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
	want := (90*1 + 9*5 + 40) / 100.0
	if got := r.MeanLatency(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// TestLatencyQuantileMatchesStatsPercentile is the cross-check behind
// the quantile unification: the histogram path and stats.Percentile on
// the raw sample must agree exactly for every quantile, because both
// now use the same interpolated definition. (The old nearest-rank
// histogram disagreed with the interpolating Percentile for the same
// data.)
func TestLatencyQuantileMatchesStatsPercentile(t *testing.T) {
	r := NewRecorder(1)
	var raw []float64
	// A deterministic, lumpy sample across the bucket range, including
	// repeats and a gap — the shapes where nearest-rank and
	// interpolation used to diverge.
	lat, step := int64(1), int64(1)
	for i := 0; i < 500; i++ {
		r.AddLatency(lat)
		raw = append(raw, float64(lat))
		if i%7 == 0 {
			lat += step
			step = (step*3)%11 + 1
		}
		if lat > 200 {
			lat = 1
		}
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		hist := r.LatencyQuantile(q)
		want := stats.Percentile(raw, q)
		if hist != want {
			t.Fatalf("q=%v: histogram %v != percentile %v", q, hist, want)
		}
	}
}

func TestLatencyEdges(t *testing.T) {
	r := NewRecorder(1)
	if r.LatencyQuantile(0.5) != 0 || r.MeanLatency() != 0 {
		t.Fatal("empty latency")
	}
	r.AddLatency(0)    // clamps to 1
	r.AddLatency(9999) // overflows into the last bucket
	if got := r.LatencyQuantile(0); got != 1 {
		t.Fatalf("clamped low = %v", got)
	}
	if got := r.LatencyQuantile(1); got != 256 {
		t.Fatalf("overflow = %v", got)
	}
}

func TestDownsample(t *testing.T) {
	var s stats.Series
	for i := 0; i < 100; i++ {
		s.Append(int64(i), float64(i))
	}
	pts := Downsample(&s, 10)
	if len(pts) != 10 {
		t.Fatalf("buckets = %d", len(pts))
	}
	// First bucket averages 0..9 = 4.5.
	if math.Abs(pts[0][1]-4.5) > 1e-9 {
		t.Fatalf("bucket0 = %v", pts[0][1])
	}
	// More buckets than samples degrades gracefully.
	var tiny stats.Series
	tiny.Append(5, 7)
	if got := Downsample(&tiny, 10); len(got) != 1 || got[0][1] != 7 {
		t.Fatalf("tiny downsample = %v", got)
	}
	if Downsample(&stats.Series{}, 5) != nil {
		t.Fatal("empty downsample")
	}
}

func TestFormatSeries(t *testing.T) {
	var s stats.Series
	s.Append(0, 1)
	s.Append(10, 3)
	out := FormatSeries(&s, 2)
	if !strings.Contains(out, "0=1.0") || !strings.Contains(out, "10=3.0") {
		t.Fatalf("formatted = %q", out)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.Add("alpha", "1")
	tbl.Add("a-much-longer-name", "2")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatal("header")
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatal("separator")
	}
	// Columns align: both data rows place the value at the same offset.
	if strings.Index(lines[2], "1") != strings.Index(lines[3], "2") {
		t.Fatal("column alignment")
	}
}
