package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cubetree"
)

type sliceRows struct {
	cols    []cubetree.Attr
	rows    [][]int64
	measure []int64
	i       int
}

func (s *sliceRows) Next() bool { s.i++; return s.i <= len(s.rows) }
func (s *sliceRows) Value(a cubetree.Attr) (int64, error) {
	for j, c := range s.cols {
		if c == a {
			return s.rows[s.i-1][j], nil
		}
	}
	return 0, nil
}
func (s *sliceRows) Measure() int64 { return s.measure[s.i-1] }

// TestLeafCensusIgnoresCatalogPackFormat builds the scrubber and runs it
// against a clean warehouse, then against the same warehouse with the
// "pack_format" member old builds wrote into forest.json (either value): the
// catalog still loads, the verdict stays clean, and the leaf census — the
// only authority on what is on disk — is reported unchanged.
func TestLeafCensusIgnoresCatalogPackFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ctcheck binary; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	whDir := filepath.Join(dir, "wh")
	w, err := cubetree.Materialize(
		cubetree.Config{Dir: whDir, Domains: map[cubetree.Attr]int64{"a": 4, "b": 4}},
		[]cubetree.View{cubetree.NewView("ab", "a", "b"), cubetree.NewView("a", "a")},
		&sliceRows{
			cols:    []cubetree.Attr{"a", "b"},
			rows:    [][]int64{{1, 1}, {2, 3}, {3, 2}, {4, 4}},
			measure: []int64{5, 3, 4, 9},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "ctcheck")
	if out, err := exec.Command("go", "build", "-o", bin, "cubetree/cmd/ctcheck").CombinedOutput(); err != nil {
		t.Fatalf("go build ctcheck: %v\n%s", err, out)
	}

	clean, err := exec.Command(bin, "-dir", whDir, "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("clean warehouse flagged: %v\n%s", err, clean)
	}
	census := censusLines(string(clean))
	if len(census) == 0 || !strings.Contains(census[0], ": 0 v2 leaves, ") {
		t.Fatalf("no all-v3 leaf census in the report:\n%s", clean)
	}

	forestJSON := filepath.Join(whDir, "gen-000001", "forest.json")
	raw, err := os.ReadFile(forestJSON)
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string]json.RawMessage
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	if _, ok := cat["pack_format"]; ok {
		t.Fatalf("forest.json still records pack_format: %s", raw)
	}
	for _, stale := range []string{"1", "2"} {
		cat["pack_format"] = json.RawMessage(stale)
		old, err := json.Marshal(cat)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(forestJSON, old, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-dir", whDir, "-v").CombinedOutput()
		if err != nil {
			t.Fatalf("catalog with pack_format %s flagged: %v\n%s", stale, err, out)
		}
		if got := censusLines(string(out)); strings.Join(got, "\n") != strings.Join(census, "\n") {
			t.Fatalf("census moved with pack_format %s:\n%s\nwas:\n%s", stale, out, clean)
		}
	}
}

// censusLines picks the per-tree leaf census lines out of a -v report.
func censusLines(report string) []string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "tree ") && strings.Contains(line, "v2 leaves") {
			out = append(out, line)
		}
	}
	return out
}
