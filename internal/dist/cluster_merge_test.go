package dist_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/obs"
)

// fakeShard is a scripted worker speaking raw wire frames: it answers stats,
// health, and query frames with canned payloads, and either answers the
// metrics scrape with a prepared snapshot or — like a pre-metrics worker —
// drops the connection on the unknown frame type.
type fakeShard struct {
	ln         net.Listener
	generation int
	metrics    *obs.Snapshot // nil: drop the connection on FrameMetrics
}

func startFakeShard(t *testing.T, generation int, metrics *obs.Snapshot) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeShard{ln: ln, generation: generation, metrics: metrics}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fs.serve(conn)
		}
	}()
	return fs
}

func (fs *fakeShard) serve(conn net.Conn) {
	defer conn.Close()
	for {
		f, err := dist.DecodeFrame(conn)
		if err != nil {
			return
		}
		var reply dist.Frame
		switch f.Type {
		case dist.FrameStats:
			reply = dist.Frame{Type: dist.FrameStatsReply, ID: f.ID, Payload: []byte(fmt.Sprintf(
				`{"generation":%d,"views":[{"name":"all","attrs":[]}],"domains":{},"schema":["sum","count"],"points":1,"bytes":64}`,
				fs.generation))}
		case dist.FrameHealth:
			reply = dist.Frame{Type: dist.FrameHealthReply, ID: f.ID, Payload: []byte(fmt.Sprintf(
				`{"generation":%d}`, fs.generation))}
		case dist.FrameQuery:
			// rows reply: generation, flags, one row-set block.
			reply = dist.Frame{Type: dist.FrameRows, ID: f.ID, Payload: dist.AppendRowSet(
				[]byte{byte(fs.generation), 0}, []cubetree.Row{{Sum: 7, Count: 1}})}
		case dist.FrameMetrics:
			if fs.metrics == nil {
				return // pre-metrics worker: unknown frame drops the connection
			}
			body, err := json.Marshal(struct {
				Generation int          `json:"generation"`
				Metrics    obs.Snapshot `json:"metrics"`
			}{fs.generation, *fs.metrics})
			if err != nil {
				return
			}
			reply = dist.Frame{Type: dist.FrameMetricsReply, ID: f.ID, Payload: body}
		default:
			return
		}
		if err := dist.EncodeFrame(conn, reply); err != nil {
			return
		}
	}
}

func fakeCoordinator(t *testing.T, shards ...*fakeShard) *dist.Coordinator {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, fs := range shards {
		addrs[i] = fs.ln.Addr().String()
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Shards:       addrs,
		Retries:      1,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// snapshotWithHistogram builds a worker snapshot whose query_latency_ns
// carries n observations of value v (all in one log2 bucket).
func snapshotWithHistogram(n int, v int64, queries uint64) *obs.Snapshot {
	var h obs.Histogram
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
	return &obs.Snapshot{
		TakenUnixNS: time.Now().UnixNano(),
		Counters:    map[string]uint64{"query_total": queries},
		Gauges:      map[string]int64{"pool_resident_frames": 8},
		Histograms:  map[string]obs.HistogramSnapshot{"query_latency_ns": h.Snapshot()},
	}
}

// The fleet histogram merge with disjoint buckets: one shard all-fast, one
// shard all-slow. The merged distribution must hold both populations with
// exact counts and percentiles spanning the gap.
func TestClusterInfoHistogramMergeDisjointBuckets(t *testing.T) {
	fast := startFakeShard(t, 1, snapshotWithHistogram(100, 1000, 100))
	slow := startFakeShard(t, 1, snapshotWithHistogram(100, 50_000_000, 100))
	coord := fakeCoordinator(t, fast, slow)

	info := coord.ClusterInfo(context.Background())
	m, ok := info.Fleet.Histograms["query_latency_ns"]
	if !ok {
		t.Fatalf("fleet histograms = %+v", info.Fleet.Histograms)
	}
	if m.Count != 200 {
		t.Fatalf("merged count = %d, want 200", m.Count)
	}
	if m.Min != 1000 || m.Max != 50_000_000 {
		t.Fatalf("merged min/max = %d/%d", m.Min, m.Max)
	}
	if len(m.Buckets) != 2 {
		t.Fatalf("merged buckets = %+v (want the two disjoint source buckets)", m.Buckets)
	}
	// Half the observations are fast: p50 stays in the fast bucket, p99 must
	// land in the slow one.
	if m.P50 >= 2048 {
		t.Fatalf("merged p50 = %d, want inside the fast bucket", m.P50)
	}
	if m.P99 < 33_554_432 {
		t.Fatalf("merged p99 = %d, want inside the slow bucket", m.P99)
	}
	if got := info.Fleet.Counters["query_total"]; got != 200 {
		t.Fatalf("fleet query_total = %d", got)
	}
}

// A worker that answers queries but fails the metrics scrape: its row carries
// the error, the fleet merge covers only the healthy shard, and the query
// path keeps working against both shards throughout.
func TestClusterInfoPartialScrape(t *testing.T) {
	healthy := startFakeShard(t, 1, snapshotWithHistogram(10, 1000, 10))
	mute := startFakeShard(t, 1, nil) // answers queries, drops FrameMetrics
	coord := fakeCoordinator(t, healthy, mute)
	ctx := context.Background()

	// Queries scatter to both shards and succeed.
	rows, err := coord.QueryProfiledCtx(ctx, cubetree.Query{}, nil)
	if err != nil {
		t.Fatalf("query against mixed fleet: %v", err)
	}
	if len(rows) != 1 || rows[0].Sum != 14 { // 7 from each shard, merged
		t.Fatalf("rows = %+v", rows)
	}

	info := coord.ClusterInfo(ctx)
	var okRows, errRows int
	for _, sh := range info.Shards {
		if sh.Error == "" {
			okRows++
			if sh.Metrics == nil {
				t.Fatalf("healthy shard %s has no metrics", sh.Addr)
			}
		} else {
			errRows++
			if sh.Metrics != nil {
				t.Fatalf("failed shard %s still carries metrics", sh.Addr)
			}
		}
	}
	if okRows != 1 || errRows != 1 {
		t.Fatalf("scrape rows ok=%d err=%d, want 1/1", okRows, errRows)
	}
	// Fleet totals reflect only the shard that answered.
	if got := info.Fleet.Counters["query_total"]; got != 10 {
		t.Fatalf("fleet query_total = %d, want 10 (healthy shard only)", got)
	}
	if got := info.Fleet.Histograms["query_latency_ns"].Count; got != 10 {
		t.Fatalf("fleet histogram count = %d, want 10", got)
	}
}

// Generation skew: a shard one generation behind must widen the min/max
// spread, and the logical generation remains the sum.
func TestClusterInfoGenerationSkew(t *testing.T) {
	ahead := startFakeShard(t, 2, snapshotWithHistogram(1, 1000, 1))
	behind := startFakeShard(t, 1, snapshotWithHistogram(1, 1000, 1))
	coord := fakeCoordinator(t, ahead, behind)

	info := coord.ClusterInfo(context.Background())
	if info.GenerationMin != 1 || info.GenerationMax != 2 || info.GenerationSkew != 1 {
		t.Fatalf("generation spread = min %d max %d skew %d, want 1/2/1",
			info.GenerationMin, info.GenerationMax, info.GenerationSkew)
	}
	if info.Generation != 3 {
		t.Fatalf("logical generation = %d, want 3 (sum of shards)", info.Generation)
	}
}

// FleetSnapshot folds the scrape into one obs.Snapshot suitable as a history
// source: worker counters and histograms summed, scrape coverage gauges set.
func TestFleetSnapshot(t *testing.T) {
	a := startFakeShard(t, 1, snapshotWithHistogram(50, 1000, 50))
	b := startFakeShard(t, 1, snapshotWithHistogram(50, 1_000_000, 50))
	coord := fakeCoordinator(t, a, b)

	snap := coord.FleetSnapshot(context.Background())
	if snap.TakenUnixNS == 0 {
		t.Fatal("fleet snapshot not timestamped")
	}
	if got := snap.Counters["query_total"]; got != 100 {
		t.Fatalf("fleet query_total = %d, want 100", got)
	}
	if got := snap.Histograms["query_latency_ns"].Count; got != 100 {
		t.Fatalf("fleet latency count = %d, want 100", got)
	}
	if snap.Gauges["dist_scraped_shards"] != 2 || snap.Gauges["dist_shards"] != 2 {
		t.Fatalf("scrape coverage gauges = %+v", snap.Gauges)
	}

	// With one shard failing the scrape, coverage narrows but the snapshot
	// still stands.
	mute := startFakeShard(t, 1, nil)
	coord2 := fakeCoordinator(t, a, mute)
	snap = coord2.FleetSnapshot(context.Background())
	if snap.Counters["query_total"] != 50 {
		t.Fatalf("partial fleet query_total = %d, want 50", snap.Counters["query_total"])
	}
	if snap.Gauges["dist_scraped_shards"] != 1 || snap.Gauges["dist_shards"] != 2 {
		t.Fatalf("partial coverage gauges = %+v", snap.Gauges)
	}
}

// TestProfiledQueryToleratesUnprofiledReply: a shard that answers a profiled
// query without the profile section still yields rows; its ShardProfile entry
// has no worker-side breakdown and the fleet sums leave it out.
func TestProfiledQueryToleratesUnprofiledReply(t *testing.T) {
	coord := fakeCoordinator(t, startFakeShard(t, 1, nil))
	prof := &cubetree.QueryProfile{}
	rows, err := coord.QueryProfiledCtx(obs.WithTraceID(context.Background(), obs.NewTraceID()), cubetree.Query{}, prof)
	if err != nil || len(rows) != 1 || rows[0].Sum != 7 || rows[0].Count != 1 {
		t.Fatalf("rows = %+v, %v", rows, err)
	}
	if len(prof.Shards) != 1 || prof.Shards[0].Profile != nil || prof.PointsScanned != 0 {
		t.Fatalf("profile = %+v", *prof)
	}
}
