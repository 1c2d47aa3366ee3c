package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sweep(qps map[int][2]float64) Throughput {
	t := Throughput{SF: 0.01, Queries: 700}
	for _, c := range []int{1, 2, 4} {
		if v, ok := qps[c]; ok {
			t.Rows = append(t.Rows, ThroughputRow{Clients: c, ConvQPS: v[0], CubeQPS: v[1]})
		}
	}
	return t
}

func TestCompareThroughputIdentical(t *testing.T) {
	base := sweep(map[int][2]float64{1: {100, 200}, 2: {180, 390}, 4: {300, 700}})
	rep := CompareThroughput(base, base, TrendOptions{})
	if rep.Regressed() {
		t.Fatalf("identical sweeps flagged as regression: %+v", rep.Regressions())
	}
	if len(rep.Deltas) != 6 {
		t.Fatalf("deltas = %d, want 6 (3 client counts x 2 engines)", len(rep.Deltas))
	}
	for _, d := range rep.Deltas {
		if d.Delta != 0 {
			t.Fatalf("identical sweep has nonzero delta: %+v", d)
		}
	}
}

func TestCompareThroughputFlagsRegression(t *testing.T) {
	base := sweep(map[int][2]float64{1: {100, 200}, 2: {180, 390}})
	// Cube engine at 2 clients drops 15% — beyond the 10% default.
	cur := sweep(map[int][2]float64{1: {100, 200}, 2: {180, 331.5}})
	rep := CompareThroughput(base, cur, TrendOptions{})
	if !rep.Regressed() {
		t.Fatal("15% drop not flagged at 10% threshold")
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Axis != 2 || regs[0].Metric != "cube" {
		t.Fatalf("regressions = %+v", regs)
	}
	if regs[0].Delta > -0.14 || regs[0].Delta < -0.16 {
		t.Fatalf("delta = %v, want ~-0.15", regs[0].Delta)
	}
}

func TestCompareThroughputThreshold(t *testing.T) {
	base := sweep(map[int][2]float64{1: {100, 200}})
	cur := sweep(map[int][2]float64{1: {100, 184}}) // cube -8%
	if CompareThroughput(base, cur, TrendOptions{}).Regressed() {
		t.Fatal("8% drop flagged at 10% threshold")
	}
	if !CompareThroughput(base, cur, TrendOptions{Threshold: 0.05}).Regressed() {
		t.Fatal("8% drop not flagged at 5% threshold")
	}
	// Speedups never regress, whatever the threshold.
	fast := sweep(map[int][2]float64{1: {400, 800}})
	if CompareThroughput(base, fast, TrendOptions{Threshold: 0.01}).Regressed() {
		t.Fatal("speedup flagged as regression")
	}
}

func TestCompareThroughputMissingClients(t *testing.T) {
	base := sweep(map[int][2]float64{1: {100, 200}, 2: {180, 390}})
	cur := sweep(map[int][2]float64{1: {100, 200}, 4: {300, 700}})
	rep := CompareThroughput(base, cur, TrendOptions{})
	if len(rep.Deltas) != 2 {
		t.Fatalf("deltas = %d, want 2 (only clients=1 comparable)", len(rep.Deltas))
	}
	if len(rep.Missing) != 2 || rep.Missing[0] != 2 || rep.Missing[1] != 4 {
		t.Fatalf("missing clients = %v, want [2 4]", rep.Missing)
	}
}

func TestCompareThroughputZeroBaseline(t *testing.T) {
	base := sweep(map[int][2]float64{1: {0, 0}})
	cur := sweep(map[int][2]float64{1: {100, 200}})
	rep := CompareThroughput(base, cur, TrendOptions{})
	if rep.Regressed() {
		t.Fatalf("zero baseline flagged as regression: %+v", rep.Regressions())
	}
	// Nothing to compare against is a zero delta, so the report stays
	// encodable (cttrend -json).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("zero-baseline report does not encode: %v", err)
	}
}

func TestLoadThroughputRoundTrip(t *testing.T) {
	want := sweep(map[int][2]float64{1: {100, 200}, 2: {180, 390}})
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_throughput.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadThroughput(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[1].CubeQPS != 390 {
		t.Fatalf("round-trip = %+v", got)
	}
	if _, err := LoadThroughput(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}
