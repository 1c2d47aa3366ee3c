package cubetree_test

import (
	"context"
	"testing"
	"time"

	"cubetree"
)

// TestProfileOffAllocParity pins the profile-off guarantee: a query issued
// through the profiled entry point with a nil profile takes the exact same
// allocation path as the plain entry point — zero extra allocations per
// query — both uninstrumented and with a full observer attached. Profiling
// must be pay-for-what-you-use, like the rest of the observability layer.
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
	// Warm the pool so neither measurement pays first-touch page faults.
	if _, err := w.QueryCtx(ctx, q); err != nil {
		t.Fatal(err)
	}

	measure := func() (base, off float64) {
		base = testing.AllocsPerRun(200, func() {
			if _, err := w.QueryCtx(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
		off = testing.AllocsPerRun(200, func() {
			if _, err := w.QueryProfiledCtx(ctx, q, nil); err != nil {
				t.Fatal(err)
			}
		})
		return base, off
	}

	base, off := measure()
	if off > base {
		t.Errorf("uninstrumented: profile-off path allocates %v/query, plain path %v", off, base)
	}

	// Slow threshold no query crosses: the observer records metrics and
	// spans but the slow log stays out of the picture, the production shape.
	w.SetObserver(cubetree.NewObserver(cubetree.ObserverOptions{SlowThreshold: time.Minute}))
	base, off = measure()
	if off > base {
		t.Errorf("observed: profile-off path allocates %v/query, plain path %v", off, base)
	}
}
