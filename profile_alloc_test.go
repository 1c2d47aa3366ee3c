package cubetree_test

import (
	"context"
	"runtime/debug"
	"testing"
	"time"

	"cubetree"
)

// TestProfileOffAllocParity pins the profile-off guarantee: a query issued
// with a nil profile stays within a fixed per-query allocation budget, both
// uninstrumented and with a full observer attached, so an unprofiled query
// pays nothing for the EXPLAIN-ANALYZE machinery. Profiling must be
// pay-for-what-you-use, like the rest of the observability layer.
func TestProfileOffAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	w, err := cubetree.Materialize(testConfig(t), testViews(), facts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	q := cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey"},
		Fixed: []cubetree.Pred{{Attr: "partkey", Value: 1}},
	}
	// Warm the pool so no measurement pays first-touch page faults.
	if _, err := w.Query(q); err != nil {
		t.Fatal(err)
	}
	// A collection makes every sync.Pool reallocate its per-P slots, which
	// would charge the query for the runtime's housekeeping.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	measure := func(name string, budget float64) {
		t.Helper()
		off := testing.AllocsPerRun(200, func() {
			if _, err := w.QueryProfiledCtx(ctx, q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/query", name, off)
		if off > budget {
			t.Errorf("%s: profile-off path allocates %v/query, budget %v", name, off, budget)
		}
	}

	// The budgets are exact: any rise means the nil-profile path gained an
	// allocation.
	measure("uninstrumented", 2)

	// Slow threshold no query crosses: the observer records metrics and
	// spans but the slow log stays out of the picture, the production shape.
	w.SetObserver(cubetree.NewObserver(cubetree.ObserverOptions{SlowThreshold: time.Minute}))
	measure("observed", 4)
}
