package workload

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"cubetree/internal/lattice"
)

// fakeEngine answers each query with a row encoding the query's first fixed
// value, and fails on a designated value. Queries after the failing one wait
// for their context, so a batch that keeps feeding workers after a failure
// shows up in executed rather than depending on scheduling.
type fakeEngine struct {
	failOn   int64
	executed atomic.Int64
	inflight atomic.Int32
	maxSeen  atomic.Int32
}

func (e *fakeEngine) exec(ctx context.Context, q Query) ([]Row, error) {
	e.executed.Add(1)
	cur := e.inflight.Add(1)
	defer e.inflight.Add(-1)
	for {
		max := e.maxSeen.Load()
		if cur <= max || e.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	v, _ := q.FixedValue("a")
	switch {
	case v == e.failOn:
		return nil, fmt.Errorf("boom on %d", v)
	case e.failOn >= 0 && v > e.failOn:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return []Row{{Group: []int64{v}, Sum: v * 10, Count: 1}}, nil
}

func batchOf(n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{
			Node:  []lattice.Attr{"a"},
			Fixed: []Pred{{Attr: "a", Value: int64(i)}},
		}
	}
	return qs
}

func TestExecuteBatchOrderAndParallel(t *testing.T) {
	for _, par := range []int{0, 1, 3, 8, 100} {
		e := &fakeEngine{failOn: -1}
		qs := batchOf(25)
		res, err := ExecuteBatch(context.Background(), e.exec, qs, par, nil)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(res) != len(qs) {
			t.Fatalf("parallelism %d: %d results for %d queries", par, len(res), len(qs))
		}
		for i, rows := range res {
			if len(rows) != 1 || rows[0].Group[0] != int64(i) || rows[0].Sum != int64(i)*10 {
				t.Fatalf("parallelism %d: result %d = %+v", par, i, rows)
			}
		}
		if par > len(qs) {
			par = len(qs)
		}
		if max := int(e.maxSeen.Load()); par > 1 && max > par {
			t.Fatalf("parallelism %d: %d queries ran concurrently", par, max)
		}
	}
}

// TestExecuteBatchError pins how a batch fails: dispatch stops at the first
// failing query, so at most the queries already handed to a worker run after
// it, and serial and parallel batches return that query's error rather than
// the cancellation of the queries still in flight.
func TestExecuteBatchError(t *testing.T) {
	const failAt, n = 7, 1000
	var serialErr error
	for _, par := range []int{1, 2, 4, 16} {
		e := &fakeEngine{failOn: failAt}
		res, err := ExecuteBatch(context.Background(), e.exec, batchOf(n), par, nil)
		if err == nil || err.Error() != "boom on 7" {
			t.Fatalf("parallelism %d: err = %v, want the failing query's error", par, err)
		}
		if par == 1 {
			serialErr = err
		} else if err.Error() != serialErr.Error() {
			t.Fatalf("parallelism %d: err %v, serial err %v", par, err, serialErr)
		}
		if got := e.executed.Load(); got > failAt+int64(par)+1 {
			t.Fatalf("parallelism %d: %d of %d queries ran after a failure at query %d", par, got, n, failAt)
		}
		if res[failAt] != nil {
			t.Fatalf("parallelism %d: failed query has a result: %+v", par, res[failAt])
		}
		if res[0] == nil || res[failAt-1] == nil {
			t.Fatalf("parallelism %d: queries before the failure lost their results", par)
		}
	}
}

// TestExecuteBatchCallerCancel: the caller's own cancellation wins over any
// query error and stops dispatch.
func TestExecuteBatchCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		e := &fakeEngine{failOn: -1}
		if _, err := ExecuteBatch(ctx, e.exec, batchOf(20), par, nil); err != context.Canceled {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if got := e.executed.Load(); got > int64(par) {
			t.Fatalf("parallelism %d: %d queries ran under a cancelled context", par, got)
		}
	}
}
