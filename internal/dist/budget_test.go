package dist_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

// tpcdFacts is the TPC-D fact stream over the three foreign keys, quantity
// as the measure — the data every BENCH_* artifact and bench/ workload uses.
type tpcdFacts struct{ it *tpcd.Iterator }

func (f *tpcdFacts) Next() bool                           { return f.it.Next() }
func (f *tpcdFacts) Value(a cubetree.Attr) (int64, error) { return f.it.Value(a) }
func (f *tpcdFacts) Measure() int64                       { return f.it.Fact().Quantity }

var tpcdKeys = []cubetree.Attr{tpcd.AttrPart, tpcd.AttrSupplier, tpcd.AttrCustomer}

// tpcdCluster is a 2-worker cluster over loopback TCP holding TPC-D at the
// given scale factor under the paper's view set (what ctload builds, and what
// bench/'s serve_cluster runs against), plus the slice list: the paper's
// Fig. 13 mix as bench/inputs.go draws it — the seven non-empty lattice nodes
// round-robin, each query fixing a non-empty subset of its node's attributes
// to the values of a uniformly drawn fact.
type tpcdCluster struct {
	coord  *dist.Coordinator
	slices []cubetree.Query
}

func startTPCDCluster(tb testing.TB, sf float64, nslices int) *tpcdCluster {
	tb.Helper()
	ds := tpcd.New(tpcd.Params{SF: sf, Seed: 1998})
	domains := map[cubetree.Attr]int64{
		tpcd.AttrPart: ds.Parts, tpcd.AttrSupplier: ds.Suppliers, tpcd.AttrCustomer: ds.Customers,
	}
	views := []cubetree.View{
		cubetree.NewView("", tpcdKeys...),
		cubetree.NewView("", tpcd.AttrPart, tpcd.AttrSupplier),
		cubetree.NewView("", tpcd.AttrCustomer),
		cubetree.NewView("", tpcd.AttrSupplier),
		cubetree.NewView("", tpcd.AttrPart),
		cubetree.NewView(""),
	}
	dir := tb.TempDir()
	whs := loadShards(tb, &tpcdFacts{ds.FactRows()}, 2, views, func(i int) cubetree.Config {
		return cubetree.Config{
			Dir: filepath.Join(dir, fmt.Sprintf("shard%d", i)), Domains: domains, PoolPages: 8192,
			Replicas: [][]cubetree.Attr{
				{tpcd.AttrSupplier, tpcd.AttrCustomer, tpcd.AttrPart},
				{tpcd.AttrCustomer, tpcd.AttrPart, tpcd.AttrSupplier},
			},
		}
	})
	_, addrs := serveShards(tb, whs, nil)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Shards: addrs})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { coord.Close() })

	var facts []tpcd.Fact
	for it := ds.FactRows(); it.Next(); {
		facts = append(facts, it.Fact())
	}
	nodes := [][]cubetree.Attr{
		tpcdKeys,
		{tpcd.AttrPart, tpcd.AttrSupplier},
		{tpcd.AttrPart, tpcd.AttrCustomer},
		{tpcd.AttrSupplier, tpcd.AttrCustomer},
		{tpcd.AttrPart}, {tpcd.AttrSupplier}, {tpcd.AttrCustomer},
	}
	rng := rand.New(rand.NewSource(1998))
	cl := &tpcdCluster{coord: coord, slices: make([]cubetree.Query, nslices)}
	for i := range cl.slices {
		node := nodes[i%len(nodes)]
		mask := rng.Intn(1<<len(node)-1) + 1
		f := facts[rng.Intn(len(facts))]
		key := map[cubetree.Attr]int64{tpcd.AttrPart: f.PartKey, tpcd.AttrSupplier: f.SuppKey, tpcd.AttrCustomer: f.CustKey}
		q := cubetree.Query{Node: node}
		for j, a := range node {
			if mask&(1<<j) != 0 {
				q.Fixed = append(q.Fixed, cubetree.Pred{Attr: a, Value: key[a]})
			}
		}
		cl.slices[i] = q
	}
	return cl
}

// sliceAnswers runs the slice list once and returns every answer.
func (cl *tpcdCluster) sliceAnswers(tb testing.TB) [][]cubetree.Row {
	tb.Helper()
	answers := make([][]cubetree.Row, len(cl.slices))
	for i, q := range cl.slices {
		rows, err := cl.coord.QueryProfiledCtx(context.Background(), q, nil)
		if err != nil {
			tb.Fatal(err)
		}
		answers[i] = rows
	}
	return answers
}

// TestClusterQueryAllocBudget pins what one query through a 2-worker cluster
// over loopback TCP allocates in the whole process — coordinator scatter,
// both workers' engine and reply, row-set decode and the fold: a small
// constant, the same for an answer of about ten rows and one of about a
// thousand, because frames are read and written through per-connection
// buffers and a row set decodes into three arenas however many rows it has.
func TestClusterQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	cl := startTPCDCluster(t, 0.01, 0)
	// A collection makes every sync.Pool in use reallocate its per-P slots,
	// which would bill the larger answer for the runtime's housekeeping.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs [2]float64
	for i, q := range []cubetree.Query{
		{Node: []cubetree.Attr{tpcd.AttrSupplier}, Ranges: []workload.Range{{Attr: tpcd.AttrSupplier, Lo: 1, Hi: 10}}},
		{Node: []cubetree.Attr{tpcd.AttrPart}, Ranges: []workload.Range{{Attr: tpcd.AttrPart, Lo: 1, Hi: 1000}}},
	} {
		rows, err := cl.coord.QueryProfiledCtx(context.Background(), q, nil)
		if err != nil || (len(rows) != 10 && len(rows) != 1000) {
			t.Fatalf("%s: %d rows, %v", q, len(rows), err)
		}
		allocs[i] = testing.AllocsPerRun(50, func() {
			if _, err := cl.coord.QueryProfiledCtx(context.Background(), q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d rows, %v allocs/query", q, len(rows), allocs[i])
	}
	if allocs[0] != allocs[1] || allocs[1] > 40 {
		t.Errorf("%v allocs for a 10-row answer, %v for a 1000-row one; want equal and ≤ 40", allocs[0], allocs[1])
	}
}

// BenchmarkClusterQuery is the slice list through
// Coordinator.QueryProfiledCtx on a 2-worker loopback cluster: the cluster
// tax per query, client and HTTP front door excluded.
func BenchmarkClusterQuery(b *testing.B) {
	cl := startTPCDCluster(b, 0.01, 1024)
	cl.sliceAnswers(b) // warm the pools and connections
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.coord.QueryProfiledCtx(context.Background(), cl.slices[i%len(cl.slices)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowSetCodec is the row-set block over the slice list's real
// answers, totals over the list: ns/row to encode and to decode, bytes a row
// on the wire. The JSON payload it replaced cost 341 ns/row to encode, 2,024
// ns/row to decode and 55 B/row on bench/'s ledger at PR 14
// (dist.frame_encode_ns_per_row, dist.frame_decode_ns_per_row,
// dist.wire_bytes_per_row).
func BenchmarkRowSetCodec(b *testing.B) {
	answers := startTPCDCluster(b, 0.01, 1024).sliceAnswers(b)
	var wire [][]byte
	var rowsTotal, bytesTotal int
	for _, rows := range answers {
		wire = append(wire, dist.AppendRowSet(nil, rows))
		rowsTotal += len(rows)
		bytesTotal += len(wire[len(wire)-1])
	}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rowsTotal), "ns/row")
		b.ReportMetric(float64(bytesTotal)/float64(rowsTotal), "B/row")
	}
	b.Run("encode", func(b *testing.B) {
		var dst []byte
		for i := 0; i < b.N; i++ {
			for _, rows := range answers {
				dst = dist.AppendRowSet(dst[:0], rows)
			}
		}
		perRow(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range wire {
				if _, err := dist.DecodeRowSet(src); err != nil {
					b.Fatal(err)
				}
			}
		}
		perRow(b)
	})
}

// TestClusterAnswersSurviveConnectionReuse holds every answer of the slice
// list while several goroutines run the list again through the same pooled
// connections — whose frame buffers and column scratch the held rows were
// decoded out of — and then checks the held answers against fresh ones.
func TestClusterAnswersSurviveConnectionReuse(t *testing.T) {
	cl := startTPCDCluster(t, 0.002, 210)
	held := cl.sliceAnswers(t)
	snapshot := make([][]cubetree.Row, len(held))
	for i, rows := range held {
		snapshot[i] = cloneRows(rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range cl.slices {
				rows, err := cl.coord.QueryProfiledCtx(context.Background(), q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !workload.EqualRows(rows, snapshot[i]) {
					t.Errorf("%s: concurrent answer differs", q)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, rows := range held {
		if len(rows) == 0 || !workload.EqualRows(rows, snapshot[i]) {
			t.Fatalf("%s: the held answer changed under later traffic", cl.slices[i])
		}
	}
}

func cloneRows(rows []cubetree.Row) []cubetree.Row {
	out := make([]cubetree.Row, len(rows))
	for i, r := range rows {
		out[i] = cubetree.Row{Group: slices.Clone(r.Group), Sum: r.Sum, Count: r.Count, Extra: slices.Clone(r.Extra)}
	}
	return out
}
