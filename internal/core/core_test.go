package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/workload"
)

func v(attrs ...lattice.Attr) lattice.View { return lattice.View{Attrs: attrs} }

func TestSelectMappingPaperExample(t *testing.T) {
	// The nine views of the paper's Figure 6, with the arities shown in
	// Figure 7: S1 = {V1,V6,V8}, S2 = {V2,V7,V9}, S3 = {V5}, S4 = {V3,V4}.
	views := []lattice.View{
		v("brand"),              // V1, arity 1
		v("suppkey", "partkey"), // V2, arity 2
		v("brand", "suppkey", "custkey", "month"),  // V3, arity 4
		v("partkey", "suppkey", "custkey", "year"), // V4, arity 4
		v("partkey", "custkey", "year"),            // V5, arity 3
		v("custkey"),                               // V6, arity 1
		v("custkey", "partkey"),                    // V7, arity 2
		v("partkey"),                               // V8, arity 1
		v("suppkey", "custkey"),                    // V9, arity 2
	}
	m := SelectMapping(views)
	if err := m.Validate(views); err != nil {
		t.Fatal(err)
	}
	// The paper maps these nine views onto exactly three Cubetrees:
	// R1{x,y,z,w}, R2{x,y,z,w}, R3{x,y}.
	if len(m.Trees) != 3 {
		t.Fatalf("trees = %d, want 3", len(m.Trees))
	}
	if m.Trees[0].Dim != 4 || m.Trees[1].Dim != 4 || m.Trees[2].Dim != 2 {
		t.Fatalf("dims = %d,%d,%d want 4,4,2", m.Trees[0].Dim, m.Trees[1].Dim, m.Trees[2].Dim)
	}
	// R3 holds one arity-1 and one arity-2 view (the paper's V8 and V9).
	last := m.Trees[2]
	if len(last.Views) != 2 {
		t.Fatalf("R3 views = %d, want 2", len(last.Views))
	}
	if views[last.Views[0]].Arity() != 1 || views[last.Views[1]].Arity() != 2 {
		t.Fatalf("R3 arities wrong")
	}
}

func TestSelectMappingNoArityCollision(t *testing.T) {
	views := []lattice.View{
		v("a"), v("b"), v("c"),
		v("a", "b"), v("b", "c"),
		v("a", "b", "c"),
	}
	m := SelectMapping(views)
	if err := m.Validate(views); err != nil {
		t.Fatal(err)
	}
	// 3 arity-1 views force 3 trees.
	if len(m.Trees) != 3 {
		t.Fatalf("trees = %d, want 3", len(m.Trees))
	}
}

func TestSelectMappingSingleView(t *testing.T) {
	views := []lattice.View{v("x", "y")}
	m := SelectMapping(views)
	if len(m.Trees) != 1 || m.Trees[0].Dim != 2 {
		t.Fatalf("mapping = %+v", m)
	}
	if m.TreeOf(0) != 0 {
		t.Fatal("TreeOf broken")
	}
}

func TestSelectMappingNoneView(t *testing.T) {
	views := []lattice.View{v("a", "b"), v()}
	m := SelectMapping(views)
	if err := m.Validate(views); err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) != 1 {
		t.Fatalf("trees = %d", len(m.Trees))
	}
	// The none view packs first.
	if views[m.Trees[0].Views[0]].Arity() != 0 {
		t.Fatal("none view must pack first")
	}
}

// buildTestForest computes three views over a toy fact table and builds a
// forest.
func buildTestForest(t *testing.T, fanout int) (*Forest, map[string]*cube.ViewData) {
	t.Helper()
	facts := &memRows{
		cols: []lattice.Attr{"partkey", "suppkey", "custkey"},
		rows: [][]int64{
			{1, 1, 1}, {1, 1, 1}, {2, 1, 1}, {2, 2, 3}, {3, 1, 3}, {1, 2, 2},
			{4, 2, 1}, {4, 1, 2}, {2, 2, 2}, {1, 2, 3},
		},
		measure: []int64{5, 7, 3, 4, 9, 2, 8, 1, 6, 10},
	}
	views := []lattice.View{
		v("partkey", "suppkey", "custkey"),
		v("partkey", "suppkey"),
		v("custkey"),
		v(),
	}
	data, err := cube.Compute(t.TempDir(), facts, views, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sources []*cube.ViewData
	for _, view := range views {
		sources = append(sources, data[view.Key()])
	}
	f, err := Build(filepath.Join(t.TempDir(), "forest"), sources, BuildOptions{
		Fanout:  fanout,
		Domains: map[lattice.Attr]int64{"partkey": 4, "suppkey": 2, "custkey": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, data
}

type memRows struct {
	cols    []lattice.Attr
	rows    [][]int64
	measure []int64
	i       int
}

func (m *memRows) Next() bool { m.i++; return m.i <= len(m.rows) }
func (m *memRows) Value(attr lattice.Attr) (int64, error) {
	for j, c := range m.cols {
		if c == attr {
			return m.rows[m.i-1][j], nil
		}
	}
	return 0, fmt.Errorf("no column %q", attr)
}
func (m *memRows) Measure() int64 { return m.measure[m.i-1] }

func TestForestBuildStructure(t *testing.T) {
	f, _ := buildTestForest(t, 0)
	// 4 views of arities 3,2,1,0: one view per arity -> a single tree.
	if f.Trees() != 1 {
		t.Fatalf("trees = %d, want 1", f.Trees())
	}
	if len(f.Placements()) != 4 {
		t.Fatalf("placements = %d", len(f.Placements()))
	}
	if f.Tree(0).Dim() != 3 {
		t.Fatalf("dim = %d", f.Tree(0).Dim())
	}
	if err := f.Tree(0).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForestQueries(t *testing.T) {
	f, _ := buildTestForest(t, 3)
	// Total over everything (none node).
	rows, err := f.Execute(workload.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Sum != 55 || rows[0].Count != 10 {
		t.Fatalf("none query = %+v", rows)
	}
	// Q1-style: per-supplier totals of part 1 (uses view ps).
	rows, err = f.Execute(workload.Query{
		Node:  []lattice.Attr{"partkey", "suppkey"},
		Fixed: []workload.Pred{{Attr: "partkey", Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// part 1: supp 1 -> 12 (5+7), supp 2 -> 12 (2+10).
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Group[0] != 1 {
			t.Fatalf("fixed attr leaked: %+v", r)
		}
	}
	if rows[0].Sum != 12 || rows[1].Sum != 12 {
		t.Fatalf("sums = %+v", rows)
	}
	// Aggregating query on a non-materialized node {suppkey}: derived from
	// a covering view with re-aggregation.
	rows, err = f.Execute(workload.Query{
		Node:  []lattice.Attr{"suppkey"},
		Fixed: []workload.Pred{{Attr: "suppkey", Value: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Sum != 30 { // 4+2+8+6+10
		t.Fatalf("suppkey=2 -> %+v", rows)
	}
	// custkey view: custkey=3 -> 4+9+10 = 23.
	rows, err = f.Execute(workload.Query{
		Node:  []lattice.Attr{"custkey"},
		Fixed: []workload.Pred{{Attr: "custkey", Value: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Sum != 23 || rows[0].Count != 3 {
		t.Fatalf("custkey=3 -> %+v", rows)
	}
}

func TestForestPlanPrefersExactView(t *testing.T) {
	f, _ := buildTestForest(t, 0)
	info, err := f.Plan(workload.Query{
		Node:  []lattice.Attr{"custkey"},
		Fixed: []workload.Pred{{Attr: "custkey", Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Placement.View.Key() != "custkey" {
		t.Fatalf("planner chose %s for custkey query", info.Placement.View)
	}
}

func TestForestOpenRoundTrip(t *testing.T) {
	f, _ := buildTestForest(t, 3)
	dir := f.Dir()
	q := workload.Query{
		Node:  []lattice.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []workload.Pred{{Attr: "custkey", Value: 1}},
	}
	want, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The catalog as written, then with the "pack_format" member builds
	// wrote while the leaf layout was selectable: an unknown key now, ignored.
	catalog := filepath.Join(dir, catalogFile)
	written, err := os.ReadFile(catalog)
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"", `"pack_format": 1,`, `"pack_format": 2,`} {
		if err := os.WriteFile(catalog, append([]byte("{"+stale), written[1:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("catalog with %q: %v", stale, err)
		}
		got, err := g.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.EqualRows(got, want) {
			t.Fatalf("reopened results differ: %+v vs %+v", got, want)
		}
		if len(g.Placements()) != 4 {
			t.Fatalf("placements after reopen = %d", len(g.Placements()))
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestForestMergeUpdate(t *testing.T) {
	f, _ := buildTestForest(t, 3)
	// Delta touching all four views: new fact rows
	// (1,1,1,+5), (4,2,3,+1) — first collides, second is new in psc.
	deltaFacts := &memRows{
		cols:    []lattice.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{1, 1, 1}, {4, 2, 3}},
		measure: []int64{5, 1},
	}
	views := []lattice.View{
		v("partkey", "suppkey", "custkey"),
		v("partkey", "suppkey"),
		v("custkey"),
		v(),
	}
	perView, err := cube.Compute(t.TempDir(), deltaFacts, views, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := f.DeltasFor(t.TempDir(), perView)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := f.MergeUpdate(filepath.Join(t.TempDir(), "forest2"), deltas, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	for i := 0; i < nf.Trees(); i++ {
		if err := nf.Tree(i).Validate(); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := nf.Execute(workload.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Sum != 61 || rows[0].Count != 12 {
		t.Fatalf("total after merge = %+v", rows)
	}
	// Old forest unchanged.
	old, _ := f.Execute(workload.Query{})
	if old[0].Sum != 55 {
		t.Fatalf("old forest mutated: %+v", old)
	}
	// Collision updated in place: (1,1,1) now 17.
	rows, _ = nf.Execute(workload.Query{
		Node: []lattice.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []workload.Pred{
			{Attr: "partkey", Value: 1}, {Attr: "suppkey", Value: 1}, {Attr: "custkey", Value: 1},
		},
	})
	if len(rows) != 1 || rows[0].Sum != 17 {
		t.Fatalf("(1,1,1) after merge = %+v", rows)
	}
	// New point present: (4,2,3).
	rows, _ = nf.Execute(workload.Query{
		Node: []lattice.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []workload.Pred{
			{Attr: "partkey", Value: 4}, {Attr: "suppkey", Value: 2}, {Attr: "custkey", Value: 3},
		},
	})
	if len(rows) != 1 || rows[0].Sum != 1 {
		t.Fatalf("(4,2,3) after merge = %+v", rows)
	}
}

func TestForestWithReplicas(t *testing.T) {
	facts := &memRows{
		cols: []lattice.Attr{"partkey", "suppkey", "custkey"},
		rows: [][]int64{
			{1, 1, 1}, {2, 2, 2}, {3, 1, 2}, {1, 2, 1},
		},
		measure: []int64{1, 2, 3, 4},
	}
	top := v("partkey", "suppkey", "custkey")
	data, err := cube.Compute(t.TempDir(), facts, []lattice.View{top}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := data[top.Key()]
	rep, err := cube.Reorder(t.TempDir(), base, []lattice.Attr{"custkey", "suppkey", "partkey"}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(filepath.Join(t.TempDir(), "f"), []*cube.ViewData{base, rep}, BuildOptions{
		Domains: map[lattice.Attr]int64{"partkey": 3, "suppkey": 2, "custkey": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Two placements of the same logical view; replicas of the same arity
	// land on separate trees.
	if f.Trees() != 2 {
		t.Fatalf("trees = %d, want 2", f.Trees())
	}
	// A query fixing partkey should pick the replica whose LAST coordinate
	// is partkey (the base order ends in custkey; the replica ends in
	// partkey), because the fixed suffix is contiguous there.
	info, err := f.Plan(workload.Query{
		Node:  []lattice.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []workload.Pred{{Attr: "partkey", Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Placement.View.OrderKey() != "custkey,suppkey,partkey" {
		t.Fatalf("planner chose %s", info.Placement.View.OrderKey())
	}
	// Both replicas agree on results.
	q := workload.Query{
		Node:  []lattice.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []workload.Pred{{Attr: "partkey", Value: 1}},
	}
	got, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %+v", got)
	}
}

// TestSelectMappingPropertiesQuick: for random view sets, the mapping
// always validates and uses exactly max-multiplicity-per-arity trees (the
// minimality the paper proves).
func TestSelectMappingPropertiesQuick(t *testing.T) {
	attrsPool := []lattice.Attr{"a", "b", "c", "d", "e", "f"}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		var views []lattice.View
		counts := map[int]int{}
		for i, r := range raw {
			arity := int(r % 5) // 0..4
			view := lattice.View{Name: string(rune('A' + i))}
			// Distinct attrs per view; identity of the attrs doesn't matter
			// to the algorithm, only arity.
			for j := 0; j < arity; j++ {
				view.Attrs = append(view.Attrs, attrsPool[(int(r)+j)%len(attrsPool)])
			}
			if len(view.Attrs) != arity {
				return false
			}
			// attrsPool slice above may repeat attrs when arity > pool; cap
			// arity at pool size to keep views well-formed.
			views = append(views, view)
			counts[arity]++
		}
		m := SelectMapping(views)
		if err := m.Validate(views); err != nil {
			return false
		}
		// Minimality: #trees equals the maximum multiplicity over arities
		// >= 1 (zero-arity views share tree 0).
		want := 0
		for a, c := range counts {
			if a >= 1 && c > want {
				want = c
			}
		}
		if want == 0 && counts[0] > 0 {
			want = 1
		}
		return len(m.Trees) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAllPlacementsAgree is a metamorphic planner test: a query must
// return identical rows no matter which covering placement executes it, so
// the planner's choice can never change answers, only cost.
func TestAllPlacementsAgree(t *testing.T) {
	facts := &memRows{
		cols: []lattice.Attr{"partkey", "suppkey", "custkey"},
		rows: [][]int64{
			{1, 1, 1}, {1, 1, 2}, {2, 1, 1}, {2, 2, 3}, {3, 1, 3}, {1, 2, 2},
			{4, 2, 1}, {4, 1, 2}, {2, 2, 2}, {1, 2, 3}, {3, 2, 1}, {4, 2, 2},
		},
		measure: []int64{5, 7, 3, 4, 9, 2, 8, 1, 6, 10, 11, 12},
	}
	top := v("partkey", "suppkey", "custkey")
	data, err := cube.Compute(t.TempDir(), facts, []lattice.View{top}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := data[top.Key()]
	scratch := t.TempDir()
	rep1, err := cube.Reorder(scratch, base, []lattice.Attr{"suppkey", "custkey", "partkey"}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := cube.Reorder(scratch, base, []lattice.Attr{"custkey", "partkey", "suppkey"}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(filepath.Join(t.TempDir(), "f"), []*cube.ViewData{base, rep1, rep2}, BuildOptions{
		Fanout:  3,
		Domains: map[lattice.Attr]int64{"partkey": 4, "suppkey": 2, "custkey": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	gen := workload.NewGenerator(55, map[lattice.Attr]int64{"partkey": 4, "suppkey": 2, "custkey": 3})
	node := []lattice.Attr{"partkey", "suppkey", "custkey"}
	for i := 0; i < 40; i++ {
		q := gen.ForNode(node)
		var want []workload.Row
		for pi := range f.placements {
			rows, _, err := f.executeOn(context.Background(), &f.placements[pi], q, nil)
			if err != nil {
				t.Fatalf("%s on %s: %v", q, f.placements[pi].View, err)
			}
			if pi == 0 {
				want = rows
				continue
			}
			if !workload.EqualRows(rows, want) {
				t.Fatalf("%s: placement %s disagrees with %s",
					q, f.placements[pi].View.OrderKey(), f.placements[0].View.OrderKey())
			}
		}
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	facts := &memRows{
		cols: []lattice.Attr{"partkey", "suppkey", "custkey"},
		rows: [][]int64{
			{1, 1, 1}, {2, 1, 2}, {3, 2, 1}, {1, 2, 3}, {2, 2, 2}, {3, 1, 3},
		},
		measure: []int64{1, 2, 3, 4, 5, 6},
	}
	views := []lattice.View{
		v("partkey", "suppkey", "custkey"),
		v("partkey"),
		v("suppkey"),
		v("custkey"),
	}
	data, err := cube.Compute(t.TempDir(), facts, views, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sources []*cube.ViewData
	for _, view := range views {
		sources = append(sources, data[view.Key()])
	}
	domains := map[lattice.Attr]int64{"partkey": 3, "suppkey": 2, "custkey": 3}
	seq, err := Build(filepath.Join(t.TempDir(), "seq"), sources, BuildOptions{Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	par, err := Build(filepath.Join(t.TempDir(), "par"), sources, BuildOptions{Domains: domains, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
	if seq.Trees() != par.Trees() || seq.Points() != par.Points() {
		t.Fatalf("structure differs: %d/%d trees, %d/%d points",
			seq.Trees(), par.Trees(), seq.Points(), par.Points())
	}
	gen := workload.NewGenerator(3, domains)
	for i := 0; i < 20; i++ {
		q := gen.ForNode([]lattice.Attr{"partkey", "suppkey", "custkey"})
		a, err := seq.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.EqualRows(a, b) {
			t.Fatalf("%s: parallel build answers differ", q)
		}
	}
}

func TestMergeUpdateWithoutDeltasCopies(t *testing.T) {
	f, _ := buildTestForest(t, 3)
	nf, err := f.MergeUpdate(filepath.Join(t.TempDir(), "copy"), nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	if nf.Points() != f.Points() {
		t.Fatalf("copy has %d points, want %d", nf.Points(), f.Points())
	}
	a, err := f.Execute(workload.Query{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := nf.Execute(workload.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.EqualRows(a, b) {
		t.Fatal("copy answers differ")
	}
}

func TestForestRejectsMixedSchemas(t *testing.T) {
	dir := t.TempDir()
	schema, err := lattice.NewSchema(lattice.AggMin)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cube.WriteTuples(dir, v("a"), [][]int64{{1, 5, 1, 5}}, cube.Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cube.WriteTuples(dir, v("a", "b"), [][]int64{{1, 1, 5, 1}}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(filepath.Join(t.TempDir(), "f"), []*cube.ViewData{a, b}, BuildOptions{}); err == nil {
		t.Fatal("mixed schemas accepted")
	}
}

func TestBuildRejectsZeroCoordinates(t *testing.T) {
	view := v("a")
	vd, err := cube.WriteTuples(t.TempDir(), view, [][]int64{{0, 5, 1}}, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(filepath.Join(t.TempDir(), "z"), []*cube.ViewData{vd}, BuildOptions{}); err == nil {
		t.Fatal("zero coordinate accepted")
	}
}
