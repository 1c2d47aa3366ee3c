package core_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"cubetree/internal/core"
	"cubetree/internal/cube"
	"cubetree/internal/greedy"
	"cubetree/internal/lattice"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

const (
	part = tpcd.AttrPart
	supp = tpcd.AttrSupplier
	cust = tpcd.AttrCustomer
)

// fact is one row of a synthetic fact table.
type fact struct {
	key     map[lattice.Attr]int64
	measure int64
}

// factRows adapts a fact slice to cube.RowIter.
type factRows struct {
	facts []fact
	i     int
}

func (r *factRows) Next() bool { r.i++; return r.i <= len(r.facts) }
func (r *factRows) Value(a lattice.Attr) (int64, error) {
	v, ok := r.facts[r.i-1].key[a]
	if !ok {
		return 0, fmt.Errorf("no attribute %q", a)
	}
	return v, nil
}
func (r *factRows) Measure() int64 { return r.facts[r.i-1].measure }

// tpcdRows adapts the TPC-D fact iterator to cube.RowIter.
type tpcdRows struct{ it *tpcd.Iterator }

func (r tpcdRows) Next() bool                          { return r.it.Next() }
func (r tpcdRows) Value(a lattice.Attr) (int64, error) { return r.it.Value(a) }
func (r tpcdRows) Measure() int64                      { return r.it.Fact().Quantity }

// paperForest packs the paper's selection — the top view, {part,supp},
// {cust}, {supp}, {part} and the empty view — plus the top view's two
// replicas, (supp,cust,part) and (cust,part,supp), as the experiments do.
func paperForest(t testing.TB, facts cube.RowIter, schema lattice.Schema, domains map[lattice.Attr]int64, fanout int) *core.Forest {
	t.Helper()
	sel := greedy.PaperSelection(part, supp, cust)
	dir := t.TempDir()
	opts := cube.Options{Schema: schema}
	data, err := cube.Compute(filepath.Join(dir, "views"), facts, sel.Views, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sources []*cube.ViewData
	for _, v := range sel.Views {
		sources = append(sources, data[v.Key()])
	}
	top := data[sel.Views[0].Key()]
	for _, order := range [][]lattice.Attr{{supp, cust, part}, {cust, part, supp}} {
		rep, err := cube.Reorder(filepath.Join(dir, "views"), top, order, opts)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, rep)
	}
	f, err := core.Build(filepath.Join(dir, "forest"), sources, core.BuildOptions{Fanout: fanout, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// bruteFold answers q straight from the facts.
func bruteFold(schema lattice.Schema, facts []fact, q workload.Query) []workload.Row {
	cells := map[string][]int64{}
	groups := map[string][]int64{}
	for _, f := range facts {
		if !matches(q, f.key) {
			continue
		}
		g := make([]int64, len(q.Node))
		for i, a := range q.Node {
			g[i] = f.key[a]
		}
		m := make([]int64, schema.Len())
		schema.Init(m, f.measure)
		k := fmt.Sprint(g)
		if c, ok := cells[k]; ok {
			schema.Fold(c, m)
			continue
		}
		cells[k], groups[k] = m, g
	}
	rows := make([]workload.Row, 0, len(cells))
	for k, c := range cells {
		r := workload.Row{Group: groups[k], Sum: c[0], Count: c[1]}
		if len(c) > 2 {
			r.Extra = c[2:]
		}
		rows = append(rows, r)
	}
	workload.SortRows(rows)
	return rows
}

func matches(q workload.Query, key map[lattice.Attr]int64) bool {
	for _, p := range q.Fixed {
		if key[p.Attr] != p.Value {
			return false
		}
	}
	for _, r := range q.Ranges {
		if v := key[r.Attr]; v < r.Lo || v > r.Hi {
			return false
		}
	}
	return true
}

// orderings lists every ordering of every subset of attrs.
func orderings(attrs []lattice.Attr) [][]lattice.Attr {
	out := [][]lattice.Attr{{}}
	var grow func(prefix []lattice.Attr)
	grow = func(prefix []lattice.Attr) {
		for _, a := range attrs {
			if slices.Contains(prefix, a) {
				continue
			}
			next := append(slices.Clone(prefix), a)
			out = append(out, next)
			grow(next)
		}
	}
	grow(nil)
	return out
}

// TestFoldModesAgree is a differential test of the fold modes. On every
// placement of the paper forest, for every group-by the placement covers
// and with each group-by attribute unconstrained, fixed or ranged, the
// run-length fold the plan picks, the hash fold, and a brute-force fold of
// the facts must return the same rows, MIN and MAX included. Leaves of four
// points make each answer span many scan batches.
func TestFoldModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	domains := map[lattice.Attr]int64{part: 12, supp: 4, cust: 9}
	facts := make([]fact, 500)
	for i := range facts {
		facts[i] = fact{key: map[lattice.Attr]int64{
			part: rng.Int63n(domains[part]) + 1,
			supp: rng.Int63n(domains[supp]) + 1,
			cust: rng.Int63n(domains[cust]) + 1,
		}, measure: rng.Int63n(2001) - 1000}
	}
	schema, err := lattice.NewSchema(lattice.AggMin, lattice.AggMax)
	if err != nil {
		t.Fatal(err)
	}
	f := paperForest(t, &factRows{facts: facts}, schema, domains, 4)

	total, runs, sorted := 0, 0, 0
	for pi, p := range f.Placements() {
		for _, node := range orderings(p.View.Attrs) {
			// Each group-by attribute: 0 unconstrained, 1 fixed, 2 ranged.
			for mask := 0; mask < pow3(len(node)); mask++ {
				q := workload.Query{Node: node}
				for j, m := 0, mask; j < len(node); j, m = j+1, m/3 {
					a, dom := node[j], domains[node[j]]
					switch m % 3 {
					case 1:
						// One value in eight misses every fact.
						q.Fixed = append(q.Fixed, workload.Pred{Attr: a, Value: rng.Int63n(dom+dom/8) + 1})
					case 2:
						lo := rng.Int63n(dom) + 1
						q.Ranges = append(q.Ranges, workload.Range{Attr: a, Lo: lo, Hi: lo + rng.Int63n(dom/2+1)})
					}
				}
				grouped, prefix, err := f.FoldPlanOn(pi, q)
				if err != nil {
					t.Fatal(err)
				}
				total++
				if grouped {
					runs++
					if prefix > 0 {
						sorted++
					}
				}
				got, err := f.ExecuteOn(pi, q)
				if err != nil {
					t.Fatal(err)
				}
				core.SetHashFold(true)
				hashed, err := f.ExecuteOn(pi, q)
				core.SetHashFold(false)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteFold(schema, facts, q)
				if !workload.EqualRows(hashed, want) {
					t.Fatalf("%s on %s: hash fold %v, want %v", q, p.View.OrderKey(), hashed, want)
				}
				if !workload.EqualRows(got, want) {
					t.Fatalf("%s on %s (grouped %v, prefix %d): %v, want %v", q, p.View.OrderKey(), grouped, prefix, got, want)
				}
			}
		}
	}
	if runs == 0 || sorted == 0 {
		t.Fatalf("%d run-length queries, %d with a prefix sort: both must be exercised", runs, sorted)
	}
	t.Logf("%d queries: %d run length, %d of them with a prefix sort", total, runs, sorted)
}

func pow3(n int) int {
	p := 1
	for ; n > 0; n-- {
		p *= 3
	}
	return p
}

// TestFoldPlanPinned pins the placement and the fold the planner gives the
// benchmark's band shapes: the five of scan_cold's request list and the
// three of BenchmarkScanBand, which repeat shapes 0, 2 and 4.
func TestFoldPlanPinned(t *testing.T) {
	ds := tpcd.New(tpcd.Params{SF: 0.002, Seed: 7})
	domains := ds.Domains()
	f := paperForest(t, tpcdRows{ds.FactRows()}, lattice.DefaultSchema(), domains, 0)
	band := func(a lattice.Attr, share float64) []workload.Range {
		width := max(1, int64(float64(domains[a])*share))
		return []workload.Range{{Attr: a, Lo: 1, Hi: width}}
	}
	for _, tc := range []struct {
		name      string
		q         workload.Query
		placement string // coordinate order, last coordinate major
		prefix    int
	}{
		{"scan_cold 0: {part,cust} over a part band", workload.Query{Node: []lattice.Attr{part, cust}, Ranges: band(part, 0.05)}, "suppkey,custkey,partkey", 0},
		{"scan_cold 1: {supp} roll-up, fixed", workload.Query{Node: []lattice.Attr{supp}, Fixed: []workload.Pred{{Attr: supp, Value: 3}}}, "suppkey", 0},
		{"scan_cold 1: {supp} roll-up, ranged", workload.Query{Node: []lattice.Attr{supp}, Ranges: band(supp, 0.40)}, "suppkey", 0},
		{"scan_cold 2: {supp,cust} over a cust band", workload.Query{Node: []lattice.Attr{supp, cust}, Ranges: band(cust, 0.05)}, "partkey,suppkey,custkey", 1},
		{"scan_cold 3: cust slice", workload.Query{Node: []lattice.Attr{cust}, Fixed: []workload.Pred{{Attr: cust, Value: 5}}}, "custkey", 0},
		{"scan_cold 4: top-view rows over a supp band", workload.Query{Node: []lattice.Attr{part, supp, cust}, Ranges: band(supp, 0.05)}, "custkey,partkey,suppkey", 1},
		{"ScanBand replica-fold", workload.Query{Node: []lattice.Attr{part, cust}, Ranges: band(part, 0.05)}, "suppkey,custkey,partkey", 0},
		{"ScanBand top-fold", workload.Query{Node: []lattice.Attr{supp, cust}, Ranges: band(cust, 0.05)}, "partkey,suppkey,custkey", 1},
		{"ScanBand top-rows", workload.Query{Node: []lattice.Attr{part, supp, cust}, Ranges: band(supp, 0.05)}, "custkey,partkey,suppkey", 1},
	} {
		pi, err := f.PlanIndex(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		grouped, prefix, err := f.FoldPlanOn(pi, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Placements()[pi].View.OrderKey(); got != tc.placement || !grouped || prefix != tc.prefix {
			t.Errorf("%s: %s, grouped %v, prefix %d; want %s, grouped, prefix %d",
				tc.name, got, grouped, prefix, tc.placement, tc.prefix)
		}
	}
}

// TestFoldEdgeAnswers checks the answers with nothing to sort under a
// prefix sort: an empty answer and a one-row answer, both planned with a
// sort prefix of one.
func TestFoldEdgeAnswers(t *testing.T) {
	domains := map[lattice.Attr]int64{part: 4, supp: 3, cust: 5}
	facts := []fact{
		{key: map[lattice.Attr]int64{part: 2, supp: 1, cust: 4}, measure: 7},
		{key: map[lattice.Attr]int64{part: 3, supp: 2, cust: 1}, measure: 9},
	}
	f := paperForest(t, &factRows{facts: facts}, lattice.DefaultSchema(), domains, 0)
	node := []lattice.Attr{supp, cust} // top view: cust major, so supp is sorted
	for _, tc := range []struct {
		q    workload.Query
		rows int
	}{
		{workload.Query{Node: node, Ranges: []workload.Range{{Attr: cust, Lo: 2, Hi: 3}}}, 0},
		{workload.Query{Node: node, Ranges: []workload.Range{{Attr: cust, Lo: 3, Hi: 5}}}, 1},
	} {
		pi, err := f.PlanIndex(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if grouped, prefix, _ := f.FoldPlanOn(pi, tc.q); !grouped || prefix != 1 {
			t.Fatalf("%s on %s: grouped %v, prefix %d; want grouped, prefix 1", tc.q, f.Placements()[pi].View.OrderKey(), grouped, prefix)
		}
		got, err := f.Execute(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFold(lattice.DefaultSchema(), facts, tc.q); len(got) != tc.rows || !workload.EqualRows(got, want) {
			t.Fatalf("%s: %v, want %v", tc.q, got, want)
		}
	}
}

// TestFoldOrder pins foldOrder on explicit placements, the cases a wrong
// "grouped" would only slow down included: the run-length fold checks its
// input, so a differential test cannot see them.
func TestFoldOrder(t *testing.T) {
	domains := map[lattice.Attr]int64{part: 4, supp: 3, cust: 5}
	facts := []fact{{key: map[lattice.Attr]int64{part: 2, supp: 1, cust: 4}, measure: 7}}
	f := paperForest(t, &factRows{facts: facts}, lattice.DefaultSchema(), domains, 0)
	index := map[string]int{}
	for i, p := range f.Placements() {
		index[p.View.OrderKey()] = i
	}
	fix := func(a lattice.Attr) workload.Pred { return workload.Pred{Attr: a, Value: 1} }
	for _, tc := range []struct {
		placement string
		q         workload.Query
		grouped   bool
		prefix    int
	}{
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{cust, supp, part}}, true, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{part, supp, cust}}, true, 2},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{supp, cust}}, true, 1},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{cust}}, true, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{}}, true, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{part}}, false, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{part, cust}}, false, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{part, supp, cust}, Fixed: []workload.Pred{fix(supp)}}, true, 1},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{cust, part, supp}, Fixed: []workload.Pred{fix(supp)}}, true, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{part, cust}, Fixed: []workload.Pred{fix(cust)}}, false, 0},
		{"partkey,suppkey,custkey", workload.Query{Node: []lattice.Attr{part, supp, cust}, Fixed: []workload.Pred{fix(supp), fix(cust)}}, true, 0},
		{"custkey,partkey,suppkey", workload.Query{Node: []lattice.Attr{part, supp, cust}}, true, 1},
		{"suppkey,custkey,partkey", workload.Query{Node: []lattice.Attr{part, cust}}, true, 0},
		{"suppkey,custkey,partkey", workload.Query{Node: []lattice.Attr{cust, part}}, true, 1},
		{"suppkey,custkey,partkey", workload.Query{Node: []lattice.Attr{supp, cust}}, false, 0},
		{"partkey,suppkey", workload.Query{Node: []lattice.Attr{supp}}, true, 0},
		{"partkey,suppkey", workload.Query{Node: []lattice.Attr{part}}, false, 0},
		{"partkey,suppkey", workload.Query{Node: []lattice.Attr{part}, Fixed: []workload.Pred{fix(part)}}, true, 0},
	} {
		grouped, prefix, err := f.FoldPlanOn(index[tc.placement], tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if grouped != tc.grouped || prefix != tc.prefix {
			t.Errorf("%s on %s: grouped %v, prefix %d; want %v, %d", tc.q, tc.placement, grouped, prefix, tc.grouped, tc.prefix)
		}
	}
}
