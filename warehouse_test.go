package cubetree_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cubetree"
	"cubetree/internal/tpcd"
)

// sliceRows is an in-memory RowIter.
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
	return 0, fmt.Errorf("no column %q", a)
}
func (s *sliceRows) Measure() int64 { return s.measure[s.i-1] }

func facts() *sliceRows {
	return &sliceRows{
		cols: []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows: [][]int64{
			{1, 1, 1}, {1, 1, 1}, {2, 1, 1}, {2, 2, 3}, {3, 1, 3}, {1, 2, 2},
		},
		measure: []int64{5, 7, 3, 4, 9, 2},
	}
}

func testViews() []cubetree.View {
	return []cubetree.View{
		cubetree.NewView("top", "partkey", "suppkey", "custkey"),
		cubetree.NewView("ps", "partkey", "suppkey"),
		cubetree.NewView("c", "custkey"),
		cubetree.NewView("all"),
	}
}

func testConfig(t *testing.T) cubetree.Config {
	return cubetree.Config{
		Dir:     filepath.Join(t.TempDir(), "wh"),
		Domains: map[cubetree.Attr]int64{"partkey": 3, "suppkey": 2, "custkey": 3},
	}
}

func TestMaterializeAndQuery(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	rows, err := w.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Sum != 30 || rows[0].Count != 6 {
		t.Fatalf("total = %+v", rows)
	}

	rows, err = w.Query(cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey"},
		Fixed: []cubetree.Pred{{Attr: "partkey", Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("part 1 rows = %+v", rows)
	}
	if rows[0].Sum != 12 || rows[1].Sum != 2 {
		t.Fatalf("part 1 sums = %+v", rows)
	}

	st := w.Stat()
	if st.Views != 4 || st.Points == 0 || st.Bytes == 0 {
		t.Fatalf("stat = %+v", st)
	}
	if w.Generation() != 1 {
		t.Fatalf("generation = %d", w.Generation())
	}
}

func TestOpenRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	q := cubetree.Query{
		Node:  []cubetree.Attr{"custkey"},
		Fixed: []cubetree.Pred{{Attr: "custkey", Value: 1}},
	}
	want, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := cubetree.Open(cfg.Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].Sum != want[0].Sum {
		t.Fatalf("reopened query differs: %+v vs %+v", got, want)
	}
	if len(w2.Views()) != 4 {
		t.Fatalf("views after reopen = %d", len(w2.Views()))
	}
}

func TestUpdateMergesIncrement(t *testing.T) {
	cfg := testConfig(t)
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	inc := &sliceRows{
		cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{1, 1, 1}, {3, 2, 2}},
		measure: []int64{10, 1},
	}
	if err := w.Update(inc); err != nil {
		t.Fatal(err)
	}
	if w.Generation() != 2 {
		t.Fatalf("generation = %d", w.Generation())
	}
	rows, err := w.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Sum != 41 || rows[0].Count != 8 {
		t.Fatalf("total after update = %+v", rows)
	}
	rows, err = w.Query(cubetree.Query{
		Node: []cubetree.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []cubetree.Pred{
			{Attr: "partkey", Value: 1}, {Attr: "suppkey", Value: 1}, {Attr: "custkey", Value: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Sum != 22 {
		t.Fatalf("(1,1,1) = %+v", rows)
	}

	// The updated warehouse survives reopen.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := cubetree.Open(cfg.Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rows, err = w2.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Sum != 41 {
		t.Fatalf("reopened total = %+v", rows)
	}
}

func TestReplicas(t *testing.T) {
	cfg := testConfig(t)
	cfg.Replicas = [][]cubetree.Attr{{"custkey", "suppkey", "partkey"}}
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stat(); st.Views != 5 {
		t.Fatalf("views with replica = %d", st.Views)
	}
	// Updates keep replicas in sync.
	inc := &sliceRows{
		cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{2, 1, 1}},
		measure: []int64{100},
	}
	if err := w.Update(inc); err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query(cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey", "custkey"},
		Fixed: []cubetree.Pred{{Attr: "partkey", Value: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		total += r.Sum
	}
	if total != 107 {
		t.Fatalf("part 2 total = %d (%+v)", total, rows)
	}
}

func TestExtraMeasuresMinMax(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExtraMeasures = []cubetree.Agg{cubetree.AggMin, cubetree.AggMax}
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Schema(); len(got) != 4 || got[2] != cubetree.AggMin || got[3] != cubetree.AggMax {
		t.Fatalf("schema = %v", got)
	}

	// Per-part measures: part 1 has quantities 5,7,2 -> min 2, max 7.
	rows, err := w.Query(cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey"},
		Fixed: []cubetree.Pred{{Attr: "partkey", Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var mn, mx int64 = 1 << 60, -1
	for _, r := range rows {
		if len(r.Extra) != 2 {
			t.Fatalf("row without extras: %+v", r)
		}
		if r.Extra[0] < mn {
			mn = r.Extra[0]
		}
		if r.Extra[1] > mx {
			mx = r.Extra[1]
		}
	}
	if mn != 2 || mx != 7 {
		t.Fatalf("part 1 min/max = %d/%d, want 2/7", mn, mx)
	}

	// Grand total with extras: min over all = 2, max = 9.
	rows, err = w.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Extra[0] != 2 || rows[0].Extra[1] != 9 {
		t.Fatalf("total extras = %v", rows[0].Extra)
	}

	// Updates fold min/max too: a new quantity 100 raises the max, and a
	// quantity 1 lowers the min.
	if err := w.Update(&sliceRows{
		cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{2, 1, 1}, {3, 1, 3}},
		measure: []int64{100, 1},
	}); err != nil {
		t.Fatal(err)
	}
	rows, err = w.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Extra[0] != 1 || rows[0].Extra[1] != 100 {
		t.Fatalf("total extras after update = %v", rows[0].Extra)
	}

	// Extras survive reopen.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := cubetree.Open(cfg.Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Schema(); len(got) != 4 {
		t.Fatalf("reopened schema = %v", got)
	}
	rows, err = w2.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Extra[1] != 100 {
		t.Fatalf("reopened extras = %v", rows[0].Extra)
	}
}

func TestQueriesConcurrentWithUpdate(t *testing.T) {
	// Queries keep returning consistent snapshots while updates swap
	// forest generations underneath. Run with -race.
	cfg := testConfig(t)
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := w.Query(cubetree.Query{})
				if err != nil {
					errCh <- err
					return
				}
				// The total only grows as updates land; it must always be a
				// valid snapshot (>= the initial 30).
				if len(rows) != 1 || rows[0].Sum < 30 {
					errCh <- fmt.Errorf("inconsistent snapshot: %+v", rows)
					return
				}
			}
		}()
	}
	for day := 0; day < 5; day++ {
		inc := &sliceRows{
			cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
			rows:    [][]int64{{1, 1, 1}},
			measure: []int64{int64(day + 1)},
		}
		if err := w.Update(inc); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	rows, err := w.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Sum != 30+1+2+3+4+5 {
		t.Fatalf("final sum = %d", rows[0].Sum)
	}
	if w.Generation() != 6 {
		t.Fatalf("generation = %d", w.Generation())
	}
}

func TestExtraMeasuresValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExtraMeasures = []cubetree.Agg{cubetree.AggSum}
	if _, err := cubetree.Materialize(cfg, testViews(), facts()); err == nil {
		t.Fatal("duplicate sum measure accepted")
	}
}

func TestCrashedUpdateLeavesOldGenerationIntact(t *testing.T) {
	// A crash between building the next generation and switching the
	// catalog must not hurt the current generation: the catalog is written
	// atomically and still points at the old forest.
	cfg := testConfig(t)
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate crash debris: a half-written next generation directory.
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "gen-000002"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, "gen-000002", "tree0.ct"),
		make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := cubetree.Open(cfg.Dir, nil)
	if err != nil {
		t.Fatalf("reopen after simulated crash: %v", err)
	}
	defer w2.Close()
	if w2.Generation() != 1 {
		t.Fatalf("generation = %d", w2.Generation())
	}
	rows, err := w2.Query(cubetree.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Sum != 30 {
		t.Fatalf("total = %+v", rows)
	}
	// And a subsequent update still succeeds, overwriting the debris.
	if err := w2.Update(&sliceRows{
		cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{1, 1, 1}},
		measure: []int64{1},
	}); err != nil {
		t.Fatal(err)
	}
	if w2.Generation() != 2 {
		t.Fatalf("generation after recovery update = %d", w2.Generation())
	}
}

func TestVerify(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(&sliceRows{
		cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{2, 2, 2}},
		measure: []int64{1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
}

func TestRemove(t *testing.T) {
	cfg := testConfig(t)
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.Dir); !os.IsNotExist(err) {
		t.Fatalf("directory survives Remove: %v", err)
	}
}

func TestQuerySQL(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	headers, rows, err := w.QuerySQL(
		"SELECT suppkey, sum(quantity), count(*), avg(quantity) FROM sales WHERE partkey = 1 GROUP BY suppkey")
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 4 || headers[0] != "suppkey" {
		t.Fatalf("headers = %v", headers)
	}
	// part 1: supp 1 -> 12/2 rows, supp 2 -> 2/1.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "1" || rows[0][1] != "12" || rows[0][2] != "2" || rows[0][3] != "6.00" {
		t.Fatalf("row 0 = %v", rows[0])
	}
	if rows[1][0] != "2" || rows[1][1] != "2" {
		t.Fatalf("row 1 = %v", rows[1])
	}

	// BETWEEN maps to a range predicate.
	_, rows, err = w.QuerySQL("SELECT sum(quantity) FROM sales WHERE partkey BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	// parts 1,2 in ranges; rows grouped by partkey implicitly: 2 rows.
	var total int64
	for _, r := range rows {
		var v int64
		fmt.Sscan(r[0], &v)
		total += v
	}
	if total != 21 { // 5+7+2 (part1) + 3+4 (part2)
		t.Fatalf("between total = %d (%v)", total, rows)
	}

	if _, _, err := w.QuerySQL("SELECT nonsense FROM t"); err == nil {
		t.Fatal("bad SQL accepted")
	}
	// MIN requires extra measures.
	if _, _, err := w.QuerySQL("SELECT min(quantity) FROM sales"); err == nil {
		t.Fatal("min over default schema accepted")
	}
}

func TestExplain(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	plan, err := w.ExplainSQL("SELECT sum(quantity) FROM sales WHERE custkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	// The custkey query must plan onto the dedicated custkey view (named
	// "c" in testViews).
	if want := "c{custkey}"; !strings.Contains(plan, want) {
		t.Fatalf("plan %q does not mention %s", plan, want)
	}
}

func TestMaterializeValidation(t *testing.T) {
	if _, err := cubetree.Materialize(cubetree.Config{}, testViews(), facts()); err == nil {
		t.Fatal("missing Dir accepted")
	}
	if _, err := cubetree.Materialize(testConfig(t), nil, facts()); err == nil {
		t.Fatal("no views accepted")
	}
	cfg := testConfig(t)
	cfg.Replicas = [][]cubetree.Attr{{"bogus"}}
	if _, err := cubetree.Materialize(cfg, testViews(), facts()); err == nil {
		t.Fatal("bogus replica accepted")
	}
}

// TestBytesPerPoint pins the storage a stored point costs on the paper's
// TPC-D configuration at SF 0.01: its six greedy views and the top view's
// two replicas. Leaves pack every column, measures included, so a point
// costs well under the 16 bytes its two measures would take raw.
func TestBytesPerPoint(t *testing.T) {
	ds := tpcd.New(tpcd.Params{SF: 0.01, Seed: 1998})
	p, s, c := tpcd.AttrPart, tpcd.AttrSupplier, tpcd.AttrCustomer
	cfg := cubetree.Config{
		Dir:      filepath.Join(t.TempDir(), "wh"),
		Domains:  ds.Domains(),
		Replicas: [][]cubetree.Attr{{s, c, p}, {c, p, s}},
	}
	views := []cubetree.View{
		cubetree.NewView("", p, s, c), cubetree.NewView("", p, s), cubetree.NewView("", c),
		cubetree.NewView("", s), cubetree.NewView("", p), cubetree.NewView(""),
	}
	w, err := cubetree.Materialize(cfg, views, benchRows(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := w.Stat()
	bpp := float64(st.Bytes) / float64(st.Points)
	t.Logf("%d bytes for %d points: %.2f B/point", st.Bytes, st.Points, bpp)
	if bpp > 5.5 {
		t.Fatalf("%.2f B/point, want <= 5.5", bpp)
	}
}
