package experiment

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

// ScalingParams configures the distributed scatter-gather sweep.
type ScalingParams struct {
	// SF is the TPC-D scale factor (default 0.01).
	SF float64
	// Seed selects the data and query random streams.
	Seed uint64
	// QueriesPerView is the batch size per lattice node (default 25).
	QueriesPerView int
	// PoolPages is the buffer pool capacity per Cubetree on each worker
	// (default 64). It is deliberately held fixed as workers are added: the
	// cluster's aggregate cache grows with N, which is the memory-scale-out
	// effect the sweep measures on top of the refresh fan-out.
	PoolPages int
	// Workers lists the cluster sizes to sweep (default 1, 2, 4).
	Workers []int
	// DeltaFrac sizes the refresh delta as a fraction of the fact table
	// (default 0.1, the paper's 10% increment).
	DeltaFrac float64
	// MinMeasure is the minimum wall-clock window each QPS row is measured
	// over; the batch repeats until the window is filled. Zero = one pass.
	MinMeasure time.Duration
	// Dir is the working directory. Empty means a fresh temp directory per
	// cluster size under os.TempDir.
	Dir string
}

func (p ScalingParams) withDefaults() ScalingParams {
	if p.SF <= 0 {
		p.SF = 0.01
	}
	if p.QueriesPerView <= 0 {
		p.QueriesPerView = 25
	}
	if p.PoolPages <= 0 {
		p.PoolPages = 64
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
	if p.DeltaFrac <= 0 {
		p.DeltaFrac = 0.1
	}
	return p
}

// Scaling is the sweep's JSON artifact (BENCH_scaling.json).
type Scaling struct {
	SF         float64 `json:"sf"`
	PoolPages  int     `json:"pool_pages_per_worker"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Queries    int     `json:"queries"`
	DeltaRows  int     `json:"delta_rows"`
	// SingleQPS is the no-network baseline on the modelled testbed: the
	// same batch executed directly against the 1-shard warehouse (no
	// coordinator, no wire protocol), its counted page I/O priced by
	// pager.Disk1998 on top of the measured CPU. SingleWallQPS is the raw
	// wall figure.
	SingleQPS     float64 `json:"single_qps"`
	SingleWallQPS float64 `json:"single_wall_qps"`
	// SingleRefreshMS is the single-process update window for the full
	// delta, measured on the 1-shard warehouse.
	SingleRefreshMS float64      `json:"single_refresh_ms"`
	Rows            []ScalingRow `json:"rows"`
}

// ScalingRow is one cluster size's measurement.
type ScalingRow struct {
	Workers int `json:"workers"`
	// QPS is aggregate queries/second through the coordinator on the
	// modelled testbed, where each worker owns its own disk: a measurement
	// window costs the slowest shard's counted page I/O priced by
	// pager.Disk1998 (shards seek in parallel on their own spindles) plus
	// that shard's CPU share — the single-host wall divided by N, because
	// on one test machine the N shard scans serialize while on N machines
	// they would not. Per the package comment, the modelled time is the
	// apples-to-apples figure; wall clock on a CPU-starved host measures
	// the host serializing the scatter, not the cluster. WallQPS records
	// the raw single-host wall figure alongside.
	QPS     float64 `json:"qps"`
	WallQPS float64 `json:"wall_qps"`
	// Speedup is QPS relative to the 1-worker cluster.
	Speedup float64 `json:"speedup"`
	// PoolHitRatio is the cluster-wide buffer pool hit ratio during the
	// query phase; the fixed per-worker pool makes this climb with N.
	PoolHitRatio float64 `json:"pool_hit_ratio"`
	// RefreshShardMaxMS is the largest single shard's merge-pack wall for
	// its slice of the delta — the per-shard update window. Shards refresh
	// concurrently in production, so this is the cluster's effective
	// blackout had queries been blocked (they are not; queries keep
	// flowing against the old generation during prepare).
	RefreshShardMaxMS float64 `json:"refresh_shard_max_ms"`
	// RefreshShardSumMS is the serialized total across shards — what a
	// single process would pay for the same delta plus partitioning skew.
	RefreshShardSumMS float64 `json:"refresh_shard_sum_ms"`
	// RefreshSpeedup is SingleRefreshMS / RefreshShardMaxMS: how much the
	// per-shard update window shrank versus the single-process refresh.
	RefreshSpeedup float64 `json:"refresh_speedup"`
}

// RunScaling sweeps cluster sizes: for each N it hash-partitions the same
// TPC-D facts into N shard warehouses, boots N wire-protocol workers plus a
// coordinator on the loopback, measures aggregate scatter-gather QPS on a
// mixed batch (answers cross-checked against the 1-worker cluster), and
// then measures the per-shard refresh wall for the paper's 10% increment.
//
// QPS follows the package's wall-plus-modelled discipline: each row records
// the raw single-host wall figure and the modelled-testbed figure, where
// every worker owns its own 1998 disk and CPU (see ScalingRow.QPS). The
// modelled figure is the one that answers "what does a second machine buy",
// which a single test host cannot exhibit in wall clock.
//
// Per-shard refresh walls are measured by running each shard's merge-pack
// sequentially and taking the max: on a single-core host a concurrent
// prepare would interleave all shards to the same end time, hiding exactly
// the per-shard window this sweep exists to show. The sequential max is the
// honest per-shard figure on any core count.
func RunScaling(p ScalingParams) (Scaling, error) {
	p = p.withDefaults()
	out := Scaling{
		SF:         p.SF,
		PoolPages:  p.PoolPages,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	ds := tpcd.New(tpcd.Params{SF: p.SF, Seed: p.Seed})
	domains := ds.Domains()
	views := []cubetree.View{
		cubetree.NewView("top", tpcd.AttrPart, tpcd.AttrSupplier, tpcd.AttrCustomer),
		cubetree.NewView("ps", tpcd.AttrPart, tpcd.AttrSupplier),
		cubetree.NewView("sc", tpcd.AttrSupplier, tpcd.AttrCustomer),
		cubetree.NewView("c", tpcd.AttrCustomer),
		cubetree.NewView("all"),
	}
	attrs := dist.ViewAttrs(views)
	// The batch is a reporting mix chosen to be scan-heavy but row-light:
	// (part,custkey) has no dedicated view, so every slice of it aggregates
	// the top view's leaves while returning only the sparse groups inside
	// the slice; suppkey roll-ups likewise aggregate ps/sc. The remaining
	// nodes answer from pruned runs or the scalar view. This keeps the
	// measurement on the engines — where the cluster's aggregate buffer
	// pool grows with N — rather than on serializing giant result sets,
	// which a reporting workload would not return anyway.
	queryNodes := [][]lattice.Attr{
		{tpcd.AttrPart, tpcd.AttrCustomer},
		{tpcd.AttrSupplier},
		{tpcd.AttrCustomer},
		{},
	}
	gens := make([]*workload.Generator, len(queryNodes))
	for i := range queryNodes {
		gens[i] = workload.NewGenerator(p.Seed+uint64(i)*7919, domains)
	}
	var queries []workload.Query
	for q := 0; q < p.QueriesPerView; q++ {
		for i, node := range queryNodes {
			if q%2 == 1 && len(node) == 1 && node[0] == tpcd.AttrSupplier {
				queries = append(queries, gens[i].ForNodeRanges(node, 0.4))
			} else {
				queries = append(queries, gens[i].ForNode(node))
			}
		}
	}
	out.Queries = len(queries)

	var reference [][]workload.Row
	ctx := context.Background()
	for wi, n := range p.Workers {
		var dir string
		if p.Dir == "" {
			var err error
			dir, err = os.MkdirTemp("", fmt.Sprintf("cubetree-scaling-%d-", n))
			if err != nil {
				return out, err
			}
			defer os.RemoveAll(dir)
		} else {
			dir = filepath.Join(p.Dir, fmt.Sprintf("w%d", n))
		}

		parts, err := dist.Partition(&factRows{it: ds.FactRows()}, attrs, n)
		if err != nil {
			return out, fmt.Errorf("partition %d ways: %w", n, err)
		}
		stats := make([]*pager.Stats, n)
		whs := make([]*cubetree.Warehouse, n)
		workers := make([]*dist.Worker, n)
		addrs := make([]string, n)
		cleanup := func() {
			for _, wk := range workers {
				if wk != nil {
					wk.Close()
				}
			}
			for _, wh := range whs {
				if wh != nil {
					wh.Close()
				}
			}
		}
		for i, part := range parts {
			stats[i] = &pager.Stats{}
			whs[i], err = cubetree.Materialize(cubetree.Config{
				Dir:       filepath.Join(dir, fmt.Sprintf("shard%d", i)),
				Domains:   domains,
				PoolPages: p.PoolPages,
				Stats:     stats[i],
			}, views, dist.Facts(attrs, part))
			if err != nil {
				cleanup()
				return out, fmt.Errorf("materialize shard %d/%d: %w", i, n, err)
			}
			workers[i] = dist.NewWorker(cubetree.ShardBackend(whs[i]), nil)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cleanup()
				return out, err
			}
			go workers[i].Serve(ln)
			addrs[i] = ln.Addr().String()
		}
		coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Shards: addrs})
		if err != nil {
			cleanup()
			return out, fmt.Errorf("coordinator over %d workers: %w", n, err)
		}

		// Single-process baseline off the 1-shard warehouse: same engine,
		// same pool, no coordinator and no wire protocol in the path.
		if wi == 0 && n == 1 {
			mark := stats[0].Snapshot()
			got, err := whs[0].QueryBatchCtx(ctx, queries, 4)
			if err != nil {
				cleanup()
				return out, err
			}
			reference = got
			start := time.Now()
			reps := 1
			for time.Since(start) < p.MinMeasure {
				if _, err := whs[0].QueryBatchCtx(ctx, queries, 4); err != nil {
					cleanup()
					return out, err
				}
				reps++
			}
			wall := time.Since(start)
			out.SingleWallQPS = throughput(reps*len(queries), wall)
			out.SingleQPS = throughput(reps*len(queries),
				wall+pager.Disk1998.Cost(stats[0].Snapshot().Sub(mark)))
		}

		row := ScalingRow{Workers: n}
		marks := make([]pager.StatsSnapshot, n)
		for i := range stats {
			marks[i] = stats[i].Snapshot()
		}
		start := time.Now()
		got, err := coord.QueryBatchCtx(ctx, queries, 4)
		if err != nil {
			coord.Close()
			cleanup()
			return out, fmt.Errorf("scatter batch @%d workers: %w", n, err)
		}
		reps := 1
		for time.Since(start) < p.MinMeasure {
			if _, err := coord.QueryBatchCtx(ctx, queries, 4); err != nil {
				coord.Close()
				cleanup()
				return out, fmt.Errorf("scatter batch @%d workers: %w", n, err)
			}
			reps++
		}
		wall := time.Since(start)
		row.WallQPS = throughput(reps*len(queries), wall)
		// Price the window on the modelled cluster: every shard's disk runs
		// in parallel, so the window's I/O bill is the slowest shard's; each
		// shard's CPU share is the single-host wall over N (the scatter work
		// this host serialized would spread across N machines).
		var maxIOCost time.Duration
		var agg pager.StatsSnapshot
		for i := range stats {
			d := stats[i].Snapshot().Sub(marks[i])
			agg.PoolHits += d.PoolHits
			agg.PoolMisses += d.PoolMisses
			if c := pager.Disk1998.Cost(d); c > maxIOCost {
				maxIOCost = c
			}
		}
		row.QPS = throughput(reps*len(queries), maxIOCost+wall/time.Duration(n))
		row.PoolHitRatio = hitRatio(agg)
		if reference == nil {
			reference = got
		}
		for i := range queries {
			if !workload.EqualRows(got[i], reference[i]) {
				coord.Close()
				cleanup()
				return out, fmt.Errorf("@%d workers, query %s: distributed answer differs from single-process", n, queries[i])
			}
		}

		// Refresh: the same 10% increment every cluster size sees, split
		// into per-shard slices; each shard's merge-pack is timed alone.
		delta, err := dist.Partition(&factRows{it: ds.Increment(p.DeltaFrac, 1)}, attrs, n)
		if err != nil {
			coord.Close()
			cleanup()
			return out, err
		}
		out.DeltaRows = 0
		var max, sum time.Duration
		for i, part := range delta {
			out.DeltaRows += len(part)
			start := time.Now()
			if err := whs[i].Update(dist.Facts(attrs, part)); err != nil {
				coord.Close()
				cleanup()
				return out, fmt.Errorf("refresh shard %d/%d: %w", i, n, err)
			}
			wall := time.Since(start)
			sum += wall
			if wall > max {
				max = wall
			}
		}
		row.RefreshShardMaxMS = float64(max.Microseconds()) / 1000
		row.RefreshShardSumMS = float64(sum.Microseconds()) / 1000
		if n == 1 {
			out.SingleRefreshMS = row.RefreshShardMaxMS
		}
		if out.SingleRefreshMS > 0 && row.RefreshShardMaxMS > 0 {
			row.RefreshSpeedup = out.SingleRefreshMS / row.RefreshShardMaxMS
		}
		if len(out.Rows) > 0 && out.Rows[0].QPS > 0 {
			row.Speedup = row.QPS / out.Rows[0].QPS
		} else if len(out.Rows) == 0 {
			row.Speedup = 1
		}
		out.Rows = append(out.Rows, row)

		coord.Close()
		cleanup()
	}
	return out, nil
}

// String renders the sweep as a table.
func (s Scaling) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling sweep: %d mixed queries, %d pool pages/worker, delta %d rows (single: %.0f q/s modelled, %.0f wall, refresh %.1fms)\n",
		s.Queries, s.PoolPages, s.DeltaRows, s.SingleQPS, s.SingleWallQPS, s.SingleRefreshMS)
	fmt.Fprintf(&b, "%8s %12s %9s %10s %9s %16s %16s %9s\n",
		"workers", "qps(model)", "speedup", "qps(wall)", "pool hit", "refresh max(ms)", "refresh sum(ms)", "rf spdup")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%8d %12.0f %8.2fx %10.0f %8.1f%% %16.1f %16.1f %8.2fx\n",
			r.Workers, r.QPS, r.Speedup, r.WallQPS, 100*r.PoolHitRatio, r.RefreshShardMaxMS, r.RefreshShardSumMS, r.RefreshSpeedup)
	}
	return b.String()
}
