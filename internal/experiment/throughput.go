package experiment

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"cubetree/internal/pager"
	"cubetree/internal/workload"
)

// Throughput extends Figure 13 with a concurrency sweep: the same mixed
// query batch is executed against both configurations with 1, 2, 4, and
// GOMAXPROCS concurrent clients, reporting wall-clock queries/second, the
// buffer-pool hit ratio, and the counted page I/O per run. Modelled time
// (the paper's metric) is invariant under parallelism — the same pages are
// read no matter when — so this sweep is about the implementation scaling
// with cores, and its JSON output is the perf baseline later PRs diff
// against.
type Throughput struct {
	SF         float64 `json:"sf"`
	PoolPages  int     `json:"pool_pages"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Queries    int     `json:"queries"`
	// CubePointsPerLeafPage is the forest's packing density; the columnar
	// format raises it, which is what turns into fewer leaf reads per query.
	CubePointsPerLeafPage float64         `json:"cube_points_per_leaf_page,omitempty"`
	Rows                  []ThroughputRow `json:"rows"`
}

// ThroughputRow is one client count's measurement over both engines.
type ThroughputRow struct {
	Clients      int                 `json:"clients"`
	ConvQPS      float64             `json:"conv_qps"`
	CubeQPS      float64             `json:"cube_qps"`
	ConvHitRatio float64             `json:"conv_pool_hit_ratio"`
	CubeHitRatio float64             `json:"cube_pool_hit_ratio"`
	ConvIO       pager.StatsSnapshot `json:"conv_io"`
	CubeIO       pager.StatsSnapshot `json:"cube_io"`
}

// DefaultClients is the sweep's client-count axis: 1, 2, 4, GOMAXPROCS
// (deduplicated, ascending).
func DefaultClients() []int {
	out := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		out = append(out, p)
	}
	return out
}

// RunThroughput executes the concurrency sweep. The batch interleaves the
// seven lattice nodes' query streams so every client count serves the same
// mixed workload. Parallel answers are cross-checked against the serial
// ones: a sweep that returned different rows would be measuring a broken
// executor.
func (s *Setup) RunThroughput(clients []int) (Throughput, error) {
	if len(clients) == 0 {
		clients = DefaultClients()
	}
	out := Throughput{
		SF:         s.Params.SF,
		PoolPages:  s.Params.PoolPages,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if lp := s.Forest.LeafPages(); lp > 0 {
		out.CubePointsPerLeafPage = float64(s.Forest.Points()) / float64(lp)
	}

	// One generator per node, interleaved round-robin into a mixed batch.
	nodes := Nodes()
	gens := make([]*workload.Generator, len(nodes))
	for i := range nodes {
		gens[i] = workload.NewGenerator(s.Params.Seed+uint64(i)*7919, s.Dataset.Domains())
	}
	var queries []workload.Query
	for q := 0; q < s.Params.QueriesPerView; q++ {
		for i, node := range nodes {
			queries = append(queries, gens[i].ForNode(node))
		}
	}
	out.Queries = len(queries)

	conv := func(_ context.Context, q workload.Query) ([]workload.Row, error) { return s.Conv.Execute(q) }
	cube := func(ctx context.Context, q workload.Query) ([]workload.Row, error) {
		return s.Forest.ExecuteProfiledCtx(ctx, q, nil)
	}
	batch := func(exec func(context.Context, workload.Query) ([]workload.Row, error), clients int) ([][]workload.Row, error) {
		return workload.ExecuteBatch(context.Background(), exec, queries, clients, s.Params.Obs)
	}

	// Serial reference answers; also warms both pools the same way every
	// sweep row's predecessor does.
	refConv, err := batch(conv, 1)
	if err != nil {
		return out, fmt.Errorf("throughput reference (conventional): %w", err)
	}
	refCube, err := batch(cube, 1)
	if err != nil {
		return out, fmt.Errorf("throughput reference (cubetree): %w", err)
	}
	for i := range queries {
		if !workload.EqualRows(refConv[i], refCube[i]) {
			return out, fmt.Errorf("engines disagree on %s", queries[i])
		}
	}

	// sweep measures one engine at c clients: q/s over at least MinMeasure,
	// the I/O of exactly one batch (page counts are deterministic per batch,
	// so repetitions would just scale them), and agreement with the serial
	// answers.
	sweep := func(name string, exec func(context.Context, workload.Query) ([]workload.Row, error), stats *pager.Stats, ref [][]workload.Row, c int) (float64, pager.StatsSnapshot, error) {
		mark := stats.Snapshot()
		start := time.Now()
		got, err := batch(exec, c)
		if err != nil {
			return 0, pager.StatsSnapshot{}, fmt.Errorf("%s @%d clients: %w", name, c, err)
		}
		io := stats.Snapshot().Sub(mark)
		reps := 1
		for time.Since(start) < s.Params.MinMeasure {
			if _, err := batch(exec, c); err != nil {
				return 0, io, fmt.Errorf("%s @%d clients: %w", name, c, err)
			}
			reps++
		}
		qps := throughput(reps*len(queries), time.Since(start))
		for i := range queries {
			if !workload.EqualRows(got[i], ref[i]) {
				return 0, io, fmt.Errorf("%s @%d clients: %s differs from serial answer", name, c, queries[i])
			}
		}
		return qps, io, nil
	}
	for _, c := range clients {
		row := ThroughputRow{Clients: c}
		if row.ConvQPS, row.ConvIO, err = sweep("conventional", conv, s.convStats, refConv, c); err != nil {
			return out, err
		}
		if row.CubeQPS, row.CubeIO, err = sweep("cubetree", cube, s.cubeStats, refCube, c); err != nil {
			return out, err
		}
		row.ConvHitRatio, row.CubeHitRatio = hitRatio(row.ConvIO), hitRatio(row.CubeIO)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func hitRatio(s pager.StatsSnapshot) float64 {
	if s.PoolHits+s.PoolMisses == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(s.PoolHits+s.PoolMisses)
}

// String renders the sweep as a table.
func (t Throughput) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput sweep: %d mixed queries, pool %d pages, GOMAXPROCS %d (wall-clock q/s)\n",
		t.Queries, t.PoolPages, t.GoMaxProcs)
	fmt.Fprintf(&b, "%8s %14s %14s %12s %12s\n", "clients", "conv q/s", "cube q/s", "conv hit%", "cube hit%")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%8d %14.0f %14.0f %11.1f%% %11.1f%%\n",
			r.Clients, r.ConvQPS, r.CubeQPS, 100*r.ConvHitRatio, 100*r.CubeHitRatio)
	}
	return b.String()
}
