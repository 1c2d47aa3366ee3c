package cubetree_test

import (
	"context"
	"errors"
	"testing"

	"cubetree"
	"cubetree/internal/core"
	"cubetree/internal/workload"
)

// batchQueries is a mixed query set spanning several lattice nodes, used by
// the QueryBatchCtx tests.
func batchQueries() []cubetree.Query {
	return []cubetree.Query{
		{}, // super-aggregate
		{Node: []cubetree.Attr{"partkey", "suppkey"}},
		{Node: []cubetree.Attr{"partkey", "suppkey"},
			Fixed: []cubetree.Pred{{Attr: "partkey", Value: 1}}},
		{Node: []cubetree.Attr{"custkey"},
			Fixed: []cubetree.Pred{{Attr: "custkey", Value: 3}}},
		{Node: []cubetree.Attr{"partkey", "suppkey", "custkey"},
			Fixed: []cubetree.Pred{
				{Attr: "partkey", Value: 1}, {Attr: "suppkey", Value: 1}, {Attr: "custkey", Value: 1}}},
		{Node: []cubetree.Attr{"partkey", "suppkey", "custkey"},
			Fixed: []cubetree.Pred{{Attr: "suppkey", Value: 2}}},
	}
}

// TestQueryBatchSerialParallelAgree pins the executor equivalence: a
// parallel batch must return exactly the rows the serial loop returns.
func TestQueryBatchSerialParallelAgree(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	queries := batchQueries()
	serial, err := w.QueryBatchCtx(context.Background(), queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := w.QueryBatchCtx(context.Background(), queries, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range queries {
			if !workload.EqualRows(got[i], serial[i]) {
				t.Fatalf("parallelism %d: query %d (%s) differs from serial", par, i, queries[i])
			}
		}
	}
}

// TestQueryBatchOldOrNewDuringUpdate drives concurrent QueryBatchCtx calls
// against a live Update and asserts every single query's answer is exactly
// the old generation's or the new generation's — never a mix, never a torn
// read. Run with -race.
func TestQueryBatchOldOrNewDuringUpdate(t *testing.T) {
	cfg := testConfig(t)
	w, err := cubetree.Materialize(cfg, testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	queries := batchQueries()
	oldRes, err := w.QueryBatchCtx(context.Background(), queries, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The delta touches partkey 1 / suppkey 1 / custkey 1, so most query
	// answers change between the generations.
	inc := &sliceRows{
		cols:    []cubetree.Attr{"partkey", "suppkey", "custkey"},
		rows:    [][]int64{{1, 1, 1}, {3, 2, 2}},
		measure: []int64{100, 7},
	}
	done := make(chan error, 1)
	go func() { done <- w.Update(inc) }()

	var batches [][][]cubetree.Row
loop:
	for {
		res, err := w.QueryBatchCtx(context.Background(), queries, 4)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, res)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			break loop
		default:
		}
	}

	newRes, err := w.QueryBatchCtx(context.Background(), queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if workload.EqualRows(newRes[0], oldRes[0]) {
		t.Fatal("update did not change the super-aggregate; the test would assert nothing")
	}
	for b, batch := range batches {
		for i, rows := range batch {
			if !workload.EqualRows(rows, oldRes[i]) && !workload.EqualRows(rows, newRes[i]) {
				t.Fatalf("batch %d query %d (%s): answer matches neither generation: %+v",
					b, i, queries[i], rows)
			}
		}
	}
	if w.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", w.Generation())
	}
}

// TestQueryCtxCancellation pins the context plumbing added for the server:
// a cancelled context must stop query execution and surface ctx.Err, both
// for single queries and batches.
func TestQueryCtxCancellation(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.QueryProfiledCtx(ctx, cubetree.Query{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryProfiledCtx with cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := w.QueryProfiledCtx(ctx, cubetree.Query{}, &cubetree.QueryProfile{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("profiled QueryProfiledCtx with cancelled ctx = %v, want context.Canceled", err)
	}
	for _, par := range []int{1, 4} {
		if _, err := w.QueryBatchCtx(ctx, batchQueries(), par); !errors.Is(err, context.Canceled) {
			t.Fatalf("QueryBatchCtx(parallelism %d) with cancelled ctx = %v, want context.Canceled", par, err)
		}
	}

	// A live context still works through the same paths.
	rows, err := w.QueryProfiledCtx(context.Background(), cubetree.Query{}, nil)
	if err != nil || len(rows) != 1 {
		t.Fatalf("QueryProfiledCtx = %v, %v", rows, err)
	}
}

// TestNoPlacementErrorIsTyped: a query no view covers fails with
// core.ErrNoPlacement whether it is executed or only explained, so callers
// (and the server's 400 mapping) classify it the same way on every path.
func TestNoPlacementErrorIsTyped(t *testing.T) {
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	q := cubetree.Query{Node: []cubetree.Attr{"nationkey"}}
	if _, err := w.Explain(q); !errors.Is(err, core.ErrNoPlacement) {
		t.Errorf("Explain = %v, want core.ErrNoPlacement", err)
	}
	if _, err := w.ExplainSQL("SELECT nationkey, sum(quantity) FROM facts GROUP BY nationkey"); !errors.Is(err, core.ErrNoPlacement) {
		t.Errorf("ExplainSQL = %v, want core.ErrNoPlacement", err)
	}
	for _, prof := range []*cubetree.QueryProfile{nil, {}} {
		if _, err := w.QueryProfiledCtx(context.Background(), q, prof); !errors.Is(err, core.ErrNoPlacement) {
			t.Errorf("QueryProfiledCtx(profiled=%v) = %v, want core.ErrNoPlacement", prof != nil, err)
		}
	}
}
