package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Trend analysis over ctbench's JSON artifacts: two sweeps of the same kind
// are compared row by row along their integer axis (client count for
// BENCH_throughput.json, worker count for BENCH_scaling.json), and a metric
// that worsens beyond a configurable threshold is flagged as a regression.
// This is the arithmetic behind cmd/cttrend, ctbench -compare and the CI
// bench gate; CompareThroughput and CompareScaling only describe their
// artifact to the one row differ.

// DefaultTrendThreshold is the fractional worsening that counts as a
// regression when no threshold is given: 10%, comfortably above the run-to-
// run noise of the smoke-scale sweep while catching real cliffs.
const DefaultTrendThreshold = 0.10

// TrendOptions configures a comparison.
type TrendOptions struct {
	// Threshold is the fractional worsening flagged as a regression
	// (0 = DefaultTrendThreshold).
	Threshold float64
}

// TrendDelta compares one metric at one axis value across two sweeps.
type TrendDelta struct {
	// Axis is the row's client or worker count (TrendReport.Axis says which).
	Axis int `json:"axis"`
	// Metric names what was compared: the engine ("conv", "cube") whose QPS
	// a throughput sweep measured, or "qps" / "refresh_ms" of a scaling row.
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cur    float64 `json:"cur"`
	// Delta is the fractional improvement: positive = better than baseline
	// (more QPS, or a smaller refresh window). Zero when the baseline has no
	// value to compare against.
	Delta     float64 `json:"delta"`
	Regressed bool    `json:"regressed"`
	// BaseHitRatio and CurHitRatio track the engine's buffer-pool hit ratio
	// across two throughput sweeps. Informational: hit-ratio shifts explain
	// QPS moves (e.g. denser leaves fit the pool better) but do not gate.
	BaseHitRatio float64 `json:"base_pool_hit_ratio,omitempty"`
	CurHitRatio  float64 `json:"cur_pool_hit_ratio,omitempty"`
}

// TrendReport is the outcome of comparing two sweeps.
type TrendReport struct {
	// Kind is the artifact compared ("throughput" or "scaling") and Axis
	// what its rows are matched by ("clients" or "workers").
	Kind      string       `json:"kind"`
	Axis      string       `json:"axis"`
	Threshold float64      `json:"threshold"`
	Deltas    []TrendDelta `json:"deltas"`
	// Missing lists axis values present in only one sweep; they cannot be
	// compared and are reported rather than silently dropped.
	Missing []int `json:"missing,omitempty"`
	// Packing density of each throughput sweep's forest. Informational, but
	// surfaced so a density regression is visible next to the QPS it explains.
	BasePointsPerLeafPage float64 `json:"base_points_per_leaf_page,omitempty"`
	CurPointsPerLeafPage  float64 `json:"cur_points_per_leaf_page,omitempty"`

	series  string // table heading over the metric names
	hitCols bool   // the artifact records pool hit ratios
}

// Regressed reports whether any compared row crossed the threshold.
func (r TrendReport) Regressed() bool { return len(r.Regressions()) > 0 }

// Regressions returns only the rows that crossed the threshold.
func (r TrendReport) Regressions() []TrendDelta {
	var out []TrendDelta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// trendMetric is one gated column of an artifact's rows; hit, when set, is
// the pool hit ratio reported beside it.
type trendMetric[R any] struct {
	name        string
	lowerBetter bool
	value       func(R) float64
	hit         func(R) float64
}

// diffRows matches base and cur rows by axis and fills rep.Deltas (sorted by
// axis, then metric name) and rep.Missing.
func diffRows[R any](rep *TrendReport, base, cur []R, axis func(R) int, metrics []trendMetric[R]) {
	if rep.Threshold <= 0 {
		rep.Threshold = DefaultTrendThreshold
	}
	baseBy := make(map[int]R, len(base))
	for _, row := range base {
		baseBy[axis(row)] = row
	}
	matched := make(map[int]bool)
	for _, row := range cur {
		a := axis(row)
		b, ok := baseBy[a]
		if !ok {
			rep.Missing = append(rep.Missing, a)
			continue
		}
		matched[a] = true
		for _, m := range metrics {
			d := TrendDelta{Axis: a, Metric: m.name, Base: m.value(b), Cur: m.value(row)}
			if d.Base > 0 {
				d.Delta = (d.Cur - d.Base) / d.Base
				if m.lowerBetter {
					d.Delta = -d.Delta
				}
			}
			d.Regressed = d.Delta < -rep.Threshold
			if m.hit != nil {
				rep.hitCols = true
				d.BaseHitRatio, d.CurHitRatio = m.hit(b), m.hit(row)
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	for a := range baseBy {
		if !matched[a] {
			rep.Missing = append(rep.Missing, a)
		}
	}
	sort.Ints(rep.Missing)
	sort.Slice(rep.Deltas, func(i, j int) bool {
		if rep.Deltas[i].Axis != rep.Deltas[j].Axis {
			return rep.Deltas[i].Axis < rep.Deltas[j].Axis
		}
		return rep.Deltas[i].Metric < rep.Deltas[j].Metric
	})
}

// CompareThroughput diffs two throughput sweeps. Rows are matched by client
// count; each matched row yields one QPS delta per engine.
func CompareThroughput(base, cur Throughput, opts TrendOptions) TrendReport {
	rep := TrendReport{
		Kind: "throughput", Axis: "clients", series: "engine", Threshold: opts.Threshold,
		BasePointsPerLeafPage: base.CubePointsPerLeafPage,
		CurPointsPerLeafPage:  cur.CubePointsPerLeafPage,
	}
	diffRows(&rep, base.Rows, cur.Rows, func(r ThroughputRow) int { return r.Clients }, []trendMetric[ThroughputRow]{
		{name: "conv", value: func(r ThroughputRow) float64 { return r.ConvQPS },
			hit: func(r ThroughputRow) float64 { return r.ConvHitRatio }},
		{name: "cube", value: func(r ThroughputRow) float64 { return r.CubeQPS },
			hit: func(r ThroughputRow) float64 { return r.CubeHitRatio }},
	})
	return rep
}

// CompareScaling diffs two scaling sweeps. Rows are matched by worker
// count; each matched row yields a QPS delta and a refresh-window delta.
func CompareScaling(base, cur Scaling, opts TrendOptions) TrendReport {
	rep := TrendReport{Kind: "scaling", Axis: "workers", series: "metric", Threshold: opts.Threshold}
	diffRows(&rep, base.Rows, cur.Rows, func(r ScalingRow) int { return r.Workers }, []trendMetric[ScalingRow]{
		{name: "qps", value: func(r ScalingRow) float64 { return r.QPS }},
		{name: "refresh_ms", lowerBetter: true, value: func(r ScalingRow) float64 { return r.RefreshShardMaxMS }},
	})
	return rep
}

// String renders the comparison as a table, regressions marked.
func (r TrendReport) String() string {
	var b strings.Builder
	title := r.Kind
	if title != "" {
		title = strings.ToUpper(title[:1]) + title[1:]
	}
	fmt.Fprintf(&b, "%s trend (regression threshold %.1f%%)\n", title, 100*r.Threshold)
	if r.BasePointsPerLeafPage != 0 || r.CurPointsPerLeafPage != 0 {
		fmt.Fprintf(&b, "cube points/leaf page %.1f -> %.1f\n", r.BasePointsPerLeafPage, r.CurPointsPerLeafPage)
	}
	fmt.Fprintf(&b, "%8s %12s %14s %14s %9s", r.Axis, r.series, "base", "current", "delta")
	if r.hitCols {
		fmt.Fprintf(&b, " %16s", "pool hit%")
	}
	b.WriteByte('\n')
	for _, d := range r.Deltas {
		fmt.Fprintf(&b, "%8d %12s %14.1f %14.1f %+8.1f%%", d.Axis, d.Metric, d.Base, d.Cur, 100*d.Delta)
		if r.hitCols {
			fmt.Fprintf(&b, " %6.1f%% -> %5.1f%%", 100*d.BaseHitRatio, 100*d.CurHitRatio)
		}
		if d.Regressed {
			b.WriteString("  REGRESSION")
		}
		b.WriteByte('\n')
	}
	if len(r.Missing) > 0 {
		fmt.Fprintf(&b, "not compared (present in only one sweep): %s %v\n", r.Axis, r.Missing)
	}
	return b.String()
}

// loadBench reads one ctbench JSON artifact. Baselines recorded by older
// builds parse fine: unknown fields (such as the pack_format member written
// while the leaf layout was selectable) are ignored and missing ones default.
func loadBench[T any](kind, path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, fmt.Errorf("load %s: %w", kind, err)
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("parse %s: %w", path, err)
	}
	return v, nil
}

// LoadThroughput reads a BENCH_throughput.json file written by ctbench.
func LoadThroughput(path string) (Throughput, error) {
	return loadBench[Throughput]("throughput", path)
}

// LoadScaling reads a BENCH_scaling.json file written by ctbench.
func LoadScaling(path string) (Scaling, error) { return loadBench[Scaling]("scaling", path) }

// BenchKind sniffs which artifact a ctbench JSON file holds: "scaling" when
// its rows carry a workers axis, "throughput" otherwise.
func BenchKind(path string) (string, error) {
	probe, err := loadBench[struct {
		Rows []map[string]json.RawMessage `json:"rows"`
	}]("bench kind", path)
	if err != nil {
		return "", err
	}
	if len(probe.Rows) > 0 {
		if _, ok := probe.Rows[0]["workers"]; ok {
			return "scaling", nil
		}
	}
	return "throughput", nil
}
