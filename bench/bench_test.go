package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestContract holds the checked-in BENCHMARK.json to the declarations in
// metrics.go and workloads.go (regenerate it with `go run . -describe`).
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file, declared any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(contractJSON(), &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, declared) {
		t.Fatalf("BENCHMARK.json differs from the declared contract; regenerate it with `go run . -describe`")
	}
}

// TestQuick runs every workload once untraced and once traced at the quick
// scale and asserts only that every declared metric is reported and that
// nothing failed: no timing assertions.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads, daemons included")
	}
	rd, err := newRunDir("")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.cleanup()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(rd, sp, quickScale, defaultSeed, 0.5, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %d failed of %d attempted, problems %v", sp.name, traced, res.failed, res.attempted, res.problems)
			}
			for _, d := range declared(traced) {
				v, ok := res.metrics[d.name]
				if !ok || d.unit == "" {
					t.Errorf("%s traced=%v: metric %s not reported", sp.name, traced, d.name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want a positive value", sp.name, d.name, v)
				}
			}
			if len(res.metrics) != len(declared(traced)) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", sp.name, traced, len(res.metrics), len(declared(traced)))
			}
		}
	}
}
