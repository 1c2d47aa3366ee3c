package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fillHistory takes n manual samples of reg at 10s virtual spacing, mutating
// between samples via step(i).
func fillHistory(t *testing.T, reg *Registry, n int, step func(i int)) *History {
	t.Helper()
	h := NewHistory(HistoryOptions{Source: reg.Snapshot, Interval: 10 * time.Second, Capacity: n + 4})
	base := time.Now().Add(-time.Duration(n) * 10 * time.Second)
	for i := 0; i < n; i++ {
		if step != nil {
			step(i)
		}
		h.sampleAt(base.Add(time.Duration(i)*10*time.Second), reg.Snapshot())
	}
	return h
}

// The acceptance contract: the sum of windowed counter deltas over the whole
// ring reconciles exactly with the cumulative counter (telescoping).
func TestHistorySeriesReconcilesWithCumulative(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("query_total")
	var first uint64
	h := fillHistory(t, reg, 30, func(i int) {
		c.Add(uint64(i * 7)) // uneven increments
		if i == 0 {
			first = c.Value()
		}
	})
	s, err := h.Series("query_total", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != "counter" {
		t.Fatalf("kind = %q, want counter", s.Kind)
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Delta
		if p.Rate < 0 {
			t.Fatalf("negative rate %v", p.Rate)
		}
	}
	if want := float64(c.Value() - first); sum != want {
		t.Fatalf("sum of deltas = %v, want cumulative diff %v", sum, want)
	}
	if s.Cumulative != c.Value() {
		t.Fatalf("Cumulative = %d, want %d", s.Cumulative, c.Value())
	}

	// A wider window telescopes too: stride-3 deltas sum to the same total
	// minus at most the truncated head of the ring.
	s3, err := h.Series("query_total", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s3.WindowS != 30 {
		t.Fatalf("WindowS = %v, want 30", s3.WindowS)
	}
	var sum3 float64
	for _, p := range s3.Points {
		sum3 += p.Delta
	}
	if sum3 > sum {
		t.Fatalf("strided sum %v exceeds fine-grained sum %v", sum3, sum)
	}
}

func TestHistoryHistogramWindowedPercentiles(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("query_latency_ns")
	h := fillHistory(t, reg, 3, func(i int) {
		// Sample 0: fast observations only. Before samples 1-2: slow ones.
		v := int64(1000)
		if i > 0 {
			v = 1_000_000
		}
		for j := 0; j < 100; j++ {
			hist.Observe(v)
		}
	})
	s, err := h.Series("query_latency_ns", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != "histogram" {
		t.Fatalf("kind = %q", s.Kind)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(s.Points))
	}
	// Both windows saw only the slow observations: the windowed p99 must
	// reflect the window (~1ms), not the lifetime mix.
	for _, p := range s.Points {
		if p.Delta != 100 {
			t.Fatalf("window delta = %v, want 100", p.Delta)
		}
		if p.P99 < 512*1024 || p.P99 > 2_000_000 {
			t.Fatalf("windowed p99 = %d, want ~1e6 (slow-only window)", p.P99)
		}
	}
}

func TestHistoryRingWraps(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	h := NewHistory(HistoryOptions{Source: reg.Snapshot, Interval: time.Second, Capacity: 4})
	base := time.Now()
	for i := 0; i < 10; i++ {
		c.Inc()
		h.sampleAt(base.Add(time.Duration(i)*time.Second), reg.Snapshot())
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	samples := h.samples()
	for i := 1; i < len(samples); i++ {
		if !samples[i].at.After(samples[i-1].at) {
			t.Fatalf("samples out of order at %d", i)
		}
	}
	snap, at, ok := h.LatestSnapshot()
	if !ok || snap.Counters["n"] != 10 || !at.Equal(base.Add(9*time.Second)) {
		t.Fatalf("LatestSnapshot = %v @ %v ok=%v", snap.Counters["n"], at, ok)
	}
}

func TestHistoryStartScrapesImmediately(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	h := NewHistory(HistoryOptions{Source: reg.Snapshot, Interval: time.Hour})
	h.Start()
	defer h.Close()
	deadline := time.Now().Add(2 * time.Second)
	for h.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sample after Start")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Start()
	h.Close()
	h.Sample()
	if h.Len() != 0 || h.Interval() != 0 {
		t.Fatal("nil history not zero")
	}
	if _, err := h.Series("x", 0); err == nil {
		t.Fatal("nil history Series should error")
	}
	if _, ok := h.Sparkline("x", 8); ok {
		t.Fatal("nil history Sparkline should be !ok")
	}
	if _, _, ok := h.LatestSnapshot(); ok {
		t.Fatal("nil history LatestSnapshot should be !ok")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history", nil))
	if rec.Code != 404 {
		t.Fatalf("nil history handler = %d, want 404", rec.Code)
	}
}

func TestHistoryHandler(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("query_total")
	reg.Gauge("generation").Set(3)
	h := fillHistory(t, reg, 5, func(i int) { c.Add(10) })

	// Index.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history", nil))
	var idx historyIndex
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Samples != 5 || idx.IntervalS != 10 {
		t.Fatalf("index = %+v", idx)
	}
	if len(idx.Counters) == 0 || idx.Counters[0] != "query_total" {
		t.Fatalf("counters = %v", idx.Counters)
	}

	// Series.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history?metric=query_total&window=10s", nil))
	var s Series
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 || s.Points[0].Delta != 10 {
		t.Fatalf("series = %+v", s)
	}
	if s.Points[0].Rate != 1 { // 10 increments / 10 virtual seconds
		t.Fatalf("rate = %v, want 1", s.Points[0].Rate)
	}

	// Latest.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history?latest=1", nil))
	if !strings.Contains(rec.Body.String(), `"generation": 3`) {
		t.Fatalf("latest missing gauge: %s", rec.Body.String())
	}

	// Unknown metric.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history?metric=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown metric = %d, want 404", rec.Code)
	}

	// Bad window.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history?metric=query_total&window=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad window = %d, want 400", rec.Code)
	}
}

func TestSparkline(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("query_total")
	i := 0
	h := fillHistory(t, reg, 10, func(n int) { c.Add(uint64(n * n)); i++ })
	sp, ok := h.Sparkline("query_total", 8)
	if !ok {
		t.Fatal("no sparkline")
	}
	if len(sp.Points) != 8 || len([]rune(sp.Spark)) != 8 {
		t.Fatalf("sparkline = %+v", sp)
	}
	// Quadratic increments: the last glyph must be the tallest block.
	if r := []rune(sp.Spark); r[len(r)-1] != '█' {
		t.Fatalf("spark = %q, want rising to full block", sp.Spark)
	}
	if sp.Last != sp.Points[len(sp.Points)-1] {
		t.Fatalf("Last = %v, points = %v", sp.Last, sp.Points)
	}
}

func TestSparkStringAllZero(t *testing.T) {
	if s := SparkString([]float64{0, 0, 0}); s != "▁▁▁" {
		t.Fatalf("SparkString zeros = %q", s)
	}
}

func TestMergeHistogramSnapshotsDisjoint(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(100) // bucket [64,128)
		b.Observe(100_000)
	}
	m := MergeHistogramSnapshots(a.Snapshot(), b.Snapshot())
	if m.Count != 200 {
		t.Fatalf("count = %d", m.Count)
	}
	if m.Min != 100 || m.Max != 100_000 {
		t.Fatalf("min/max = %d/%d", m.Min, m.Max)
	}
	if m.Sum != 100*100+100*100_000 {
		t.Fatalf("sum = %d", m.Sum)
	}
	if len(m.Buckets) != 2 {
		t.Fatalf("buckets = %v", m.Buckets)
	}
	// p50 falls in the low bucket, p99 in the high one.
	if m.P50 >= 128 {
		t.Fatalf("p50 = %d, want inside low bucket", m.P50)
	}
	if m.P99 < 65536 {
		t.Fatalf("p99 = %d, want inside high bucket", m.P99)
	}
	// Merging with an empty snapshot is the identity.
	if got := MergeHistogramSnapshots(m, HistogramSnapshot{}); got.Count != 200 {
		t.Fatalf("merge with empty = %+v", got)
	}
	if got := MergeHistogramSnapshots(HistogramSnapshot{}, m); got.Count != 200 {
		t.Fatalf("merge empty-first = %+v", got)
	}
}

// TestSnapshotMerge pins the fleet rollup: counters and gauges add,
// histograms merge, labelled families are left alone, and a zero receiver
// gets its maps created.
func TestSnapshotMerge(t *testing.T) {
	var h Histogram
	h.Observe(100)
	shard := Snapshot{
		Counters:    map[string]uint64{"query_total": 3},
		Gauges:      map[string]int64{"pool_resident_frames": 5},
		Histograms:  map[string]HistogramSnapshot{"query_latency_ns": h.Snapshot()},
		CounterVecs: map[string]FamilySnapshot{"shed": {}},
	}
	var fleet Snapshot
	fleet.Merge(shard)
	fleet.Merge(shard)
	if fleet.Counters["query_total"] != 6 || fleet.Gauges["pool_resident_frames"] != 10 {
		t.Fatalf("counters %v gauges %v, want sums", fleet.Counters, fleet.Gauges)
	}
	if got := fleet.Histograms["query_latency_ns"].Count; got != 2 {
		t.Fatalf("merged histogram count = %d, want 2", got)
	}
	if fleet.CounterVecs != nil {
		t.Fatalf("labelled families merged: %v", fleet.CounterVecs)
	}
}

func TestDeltaHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(100)
	}
	earlier := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(1_000_000)
	}
	later := h.Snapshot()
	d := DeltaHistogramSnapshot(later, earlier)
	if d.Count != 50 {
		t.Fatalf("delta count = %d, want 50", d.Count)
	}
	if d.Sum != 50*1_000_000 {
		t.Fatalf("delta sum = %d", d.Sum)
	}
	// The window contained only slow observations; its p50 must say so.
	if d.P50 < 512*1024 {
		t.Fatalf("delta p50 = %d, want ~1e6", d.P50)
	}
	// Counter reset (later < earlier) yields empty, not garbage.
	if r := DeltaHistogramSnapshot(earlier, later); r.Count != 0 {
		t.Fatalf("reset delta = %+v", r)
	}
	// Identical snapshots yield empty.
	if r := DeltaHistogramSnapshot(later, later); r.Count != 0 {
		t.Fatalf("self delta = %+v", r)
	}
}
