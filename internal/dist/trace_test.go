package dist_test

import (
	"context"
	"testing"

	"cubetree"
	"cubetree/internal/obs"
	"cubetree/internal/workload"
)

// traceDomains are wide enough that each shard's views span several leaf
// pages, so zone-map pruning has something to skip.
var traceDomains = map[cubetree.Attr]int64{"partkey": 200, "suppkey": 100, "custkey": 50}

// findTrace returns the spans in snaps tagged with the trace ID.
func findTrace(snaps []obs.SpanSnapshot, tid string) []obs.SpanSnapshot {
	var out []obs.SpanSnapshot
	for _, s := range snaps {
		if s.TraceID == tid {
			out = append(out, s)
		}
	}
	return out
}

// TestTraceIDEndToEndAcrossCluster is the tentpole acceptance check for
// tracing: one trace ID set on the coordinator's context must appear in the
// span snapshots of the coordinator AND of every worker — the same query,
// followed across three processes.
func TestTraceIDEndToEndAcrossCluster(t *testing.T) {
	cl := startCluster(t, 2, traceDomains, synthFacts(8000, 3, traceDomains))
	tid := obs.NewTraceID()
	ctx := obs.WithTraceID(context.Background(), tid)
	q := cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey"},
		Fixed: []cubetree.Pred{{Attr: "suppkey", Value: 5}},
	}
	if _, err := cl.coord.QueryProfiledCtx(ctx, q, nil); err != nil {
		t.Fatal(err)
	}

	roots := findTrace(cl.coordObs.Tracer.Snapshot(), tid)
	if len(roots) != 1 || roots[0].Name != "dist_query" {
		t.Fatalf("coordinator trace %s = %+v, want one dist_query root", tid, roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("stitched root has %d shard legs, want 2", len(roots[0].Children))
	}
	seenAddr := map[string]bool{}
	for _, leg := range roots[0].Children {
		if leg.Name != "shard" {
			t.Fatalf("leg name = %q, want shard", leg.Name)
		}
		addr, _ := leg.Attrs["addr"].(string)
		seenAddr[addr] = true
		if att, _ := leg.Attrs["attempts"].(int64); att < 1 {
			t.Fatalf("leg %s attempts = %v", addr, leg.Attrs["attempts"])
		}
	}
	for _, addr := range cl.addrs {
		if !seenAddr[addr] {
			t.Fatalf("no shard leg for %s in root span (got %v)", addr, seenAddr)
		}
	}
	for i, wo := range cl.workerObs {
		spans := findTrace(wo.Tracer.Snapshot(), tid)
		if len(spans) == 0 {
			t.Fatalf("worker %d has no span tagged with trace %s", i, tid)
		}
	}
}

// TestProfiledDistributedQuery checks the EXPLAIN-ANALYZE path across the
// cluster: fleet-wide sums equal the per-shard parts, every shard reports
// nonzero zone-map and scan activity on a populated warehouse, and the
// per-shard timings are consistent with the stitched root span.
func TestProfiledDistributedQuery(t *testing.T) {
	cl := startCluster(t, 2, traceDomains, synthFacts(8000, 7, traceDomains))
	tid := obs.NewTraceID()
	ctx := obs.WithTraceID(context.Background(), tid)
	q := cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey"},
		Fixed: []cubetree.Pred{{Attr: "suppkey", Value: 9}},
	}
	prof := &workload.QueryProfile{}
	rows, err := cl.coord.QueryProfiledCtx(ctx, q, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("profiled query returned no rows; pick a predicate the facts hit")
	}
	if prof.TraceID != tid {
		t.Fatalf("profile trace id = %q, want %q", prof.TraceID, tid)
	}
	if prof.RowsReturned != int64(len(rows)) {
		t.Fatalf("profile rows = %d, returned %d", prof.RowsReturned, len(rows))
	}
	if len(prof.Shards) != 2 {
		t.Fatalf("profile has %d shards, want 2", len(prof.Shards))
	}

	var sum workload.QueryProfile
	for _, sh := range prof.Shards {
		if sh.Profile == nil {
			t.Fatalf("shard %s returned no worker profile", sh.Addr)
		}
		if sh.Attempts < 1 || sh.DurationNS <= 0 || sh.Generation != 1 {
			t.Fatalf("shard %s round-trip detail = %+v", sh.Addr, sh)
		}
		if sh.Profile.PointsScanned <= 0 {
			t.Fatalf("shard %s scanned no points", sh.Addr)
		}
		if sh.Profile.LeafPagesRead <= 0 || sh.Profile.LeafPagesSkipped <= 0 {
			t.Fatalf("shard %s leaf read/skip = %d/%d, want both nonzero",
				sh.Addr, sh.Profile.LeafPagesRead, sh.Profile.LeafPagesSkipped)
		}
		if sh.Profile.PoolHits+sh.Profile.PoolMisses <= 0 {
			t.Fatalf("shard %s pool delta = %d/%d", sh.Addr, sh.Profile.PoolHits, sh.Profile.PoolMisses)
		}
		sum.PointsScanned += sh.Profile.PointsScanned
		sum.LeafPagesRead += sh.Profile.LeafPagesRead
		sum.LeafPagesSkipped += sh.Profile.LeafPagesSkipped
		sum.PoolHits += sh.Profile.PoolHits
		sum.PoolMisses += sh.Profile.PoolMisses
	}
	if prof.PointsScanned != sum.PointsScanned ||
		prof.LeafPagesRead != sum.LeafPagesRead ||
		prof.LeafPagesSkipped != sum.LeafPagesSkipped ||
		prof.PoolHits != sum.PoolHits ||
		prof.PoolMisses != sum.PoolMisses {
		t.Fatalf("fleet sums %+v disagree with per-shard parts %+v", *prof, sum)
	}

	// Timing consistency with the stitched root span: the scatter runs legs
	// in parallel, so each leg's wall time is bounded by the root's, and the
	// profile's own duration covers its slowest leg.
	roots := findTrace(cl.coordObs.Tracer.Snapshot(), tid)
	if len(roots) != 1 {
		t.Fatalf("coordinator has %d spans for trace %s, want 1", len(roots), tid)
	}
	root := roots[0]
	for _, sh := range prof.Shards {
		if sh.DurationNS > root.DurationNS {
			t.Fatalf("shard %s leg %dns exceeds root span %dns", sh.Addr, sh.DurationNS, root.DurationNS)
		}
		if sh.DurationNS > prof.DurationNS {
			t.Fatalf("shard %s leg %dns exceeds profile duration %dns", sh.Addr, sh.DurationNS, prof.DurationNS)
		}
	}
	for _, leg := range root.Children {
		if leg.DurationNS > root.DurationNS {
			t.Fatalf("leg span %dns exceeds root span %dns", leg.DurationNS, root.DurationNS)
		}
		if _, ok := leg.Attrs["points_scanned"]; !ok {
			t.Fatalf("leg span missing points_scanned attr: %v", leg.Attrs)
		}
	}
}

// TestClusterInfoScrape covers the /debug/cluster aggregation in-process:
// both shards answer the metrics scrape, the fleet merge sums their
// counters, the generation table shows zero skew, and the pool occupancy
// gauges come through.
func TestClusterInfoScrape(t *testing.T) {
	cl := startCluster(t, 2, traceDomains, synthFacts(4000, 5, traceDomains))
	ctx := context.Background()
	// Drive some traffic so worker counters are nonzero.
	for i := 0; i < 3; i++ {
		if _, err := cl.coord.QueryProfiledCtx(ctx, cubetree.Query{Node: []cubetree.Attr{"custkey"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	info := cl.coord.ClusterInfo(ctx)
	if len(info.Shards) != 2 {
		t.Fatalf("cluster info has %d shards, want 2", len(info.Shards))
	}
	for _, sh := range info.Shards {
		if sh.Error != "" {
			t.Fatalf("shard %s scrape error: %s", sh.Addr, sh.Error)
		}
		if sh.Generation != 1 || sh.Metrics == nil {
			t.Fatalf("shard row = %+v", sh)
		}
		if sh.PoolCapacityFrames <= 0 || sh.PoolResidentFrames <= 0 {
			t.Fatalf("shard %s pool gauges = resident %d / capacity %d",
				sh.Addr, sh.PoolResidentFrames, sh.PoolCapacityFrames)
		}
		if sh.Metrics.Counters["query_total"] == 0 {
			t.Fatalf("shard %s reports no queries", sh.Addr)
		}
	}
	if info.GenerationMin != 1 || info.GenerationMax != 1 || info.GenerationSkew != 0 {
		t.Fatalf("generation table = min %d max %d skew %d",
			info.GenerationMin, info.GenerationMax, info.GenerationSkew)
	}
	var workerSum uint64
	for _, sh := range info.Shards {
		workerSum += sh.Metrics.Counters["query_total"]
	}
	if got := info.Fleet.Counters["query_total"]; got != workerSum {
		t.Fatalf("fleet query_total = %d, per-shard sum = %d", got, workerSum)
	}
}
