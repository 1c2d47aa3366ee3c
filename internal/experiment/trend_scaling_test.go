package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scalingFixture(qps4, refresh4 float64) Scaling {
	return Scaling{
		SF: 0.01, PoolPages: 64, Queries: 100,
		SingleQPS: 900, SingleRefreshMS: 40,
		Rows: []ScalingRow{
			{Workers: 1, QPS: 1000, Speedup: 1, RefreshShardMaxMS: 40, RefreshShardSumMS: 40},
			{Workers: 4, QPS: qps4, Speedup: qps4 / 1000, RefreshShardMaxMS: refresh4, RefreshShardSumMS: 44},
		},
	}
}

func TestCompareScaling(t *testing.T) {
	base := scalingFixture(3000, 12)
	same := CompareScaling(base, base, TrendOptions{})
	if same.Regressed() {
		t.Fatalf("self-comparison regressed: %v", same.Regressions())
	}

	// QPS down 50% at 4 workers: regression on the qps metric only.
	worse := CompareScaling(base, scalingFixture(1500, 12), TrendOptions{})
	regs := worse.Regressions()
	if len(regs) != 1 || regs[0].Metric != "qps" || regs[0].Axis != 4 {
		t.Fatalf("regressions = %+v, want one qps@4", regs)
	}

	// Refresh window doubled: lower-is-better metric must flag too.
	slower := CompareScaling(base, scalingFixture(3000, 24), TrendOptions{})
	regs = slower.Regressions()
	if len(regs) != 1 || regs[0].Metric != "refresh_ms" {
		t.Fatalf("regressions = %+v, want one refresh_ms@4", regs)
	}
	if !strings.Contains(slower.String(), "REGRESSION") {
		t.Fatal("rendering does not mark the regression")
	}

	// A cluster size present on one side only is reported, not compared.
	cur := base
	cur.Rows = cur.Rows[:1]
	partial := CompareScaling(base, cur, TrendOptions{})
	if len(partial.Missing) != 1 || partial.Missing[0] != 4 {
		t.Fatalf("missing workers = %v, want [4]", partial.Missing)
	}
	if !strings.Contains(partial.String(), "workers [4]") {
		t.Fatalf("rendering does not list the uncompared cluster size:\n%s", partial.String())
	}
}

// TestBenchKindSniff checks cttrend's artifact detection and that baselines
// of other vintages load: one recorded before several fields existed (they
// default) and one carrying the since-retired pack_format member (ignored).
func TestBenchKindSniff(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// A PR 5 era throughput baseline: no cube_points_per_leaf_page, no pool
	// hit ratios.
	old := write("old.json", `{
		"sf": 0.01, "pool_pages": 128, "gomaxprocs": 4, "queries": 700,
		"rows": [{"clients": 1, "conv_qps": 100, "cube_qps": 400,
			"conv_io": {}, "cube_io": {}}]
	}`)
	scaling := write("scaling.json", `{
		"sf": 0.01, "pool_pages_per_worker": 64, "queries": 100,
		"rows": [{"workers": 1, "qps": 1000, "speedup": 1}]
	}`)

	if k, err := BenchKind(old); err != nil || k != "throughput" {
		t.Fatalf("BenchKind(old) = %q, %v", k, err)
	}
	if k, err := BenchKind(scaling); err != nil || k != "scaling" {
		t.Fatalf("BenchKind(scaling) = %q, %v", k, err)
	}

	tp, err := LoadThroughput(old)
	if err != nil {
		t.Fatalf("old baseline failed to load: %v", err)
	}
	if len(tp.Rows) != 1 || tp.Rows[0].CubeQPS != 400 {
		t.Fatalf("old baseline mangled: %+v", tp)
	}
	// A PR 6–17 era baseline still carries "pack_format": it loads, and
	// compares clean against the old one on the rows they share.
	withFormat := write("pf.json", `{
		"sf": 0.01, "pool_pages": 128, "gomaxprocs": 4, "queries": 700,
		"pack_format": 2, "cube_points_per_leaf_page": 416.5,
		"rows": [{"clients": 1, "conv_qps": 100, "cube_qps": 400,
			"conv_pool_hit_ratio": 0.5, "cube_pool_hit_ratio": 0.9}]
	}`)
	cur, err := LoadThroughput(withFormat)
	if err != nil {
		t.Fatalf("baseline with pack_format failed to load: %v", err)
	}
	rep := CompareThroughput(tp, cur, TrendOptions{})
	if rep.Regressed() || len(rep.Deltas) != 2 {
		t.Fatalf("same-QPS baselines: %+v", rep)
	}
	if s := rep.String(); !strings.Contains(s, "points/leaf page 0.0 -> 416.5") || strings.Contains(s, "format") {
		t.Fatalf("rendering:\n%s", s)
	}

	s, err := LoadScaling(scaling)
	if err != nil || len(s.Rows) != 1 || s.Rows[0].Workers != 1 {
		t.Fatalf("LoadScaling = %+v, %v", s, err)
	}
}
