package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"path/filepath"
	"runtime/debug"
	"testing"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/rtree"
	"cubetree/internal/workload"
)

// buildBandForest packs a 30 × 10 × 100 fact grid (every key combination
// once) as its top view plus {custkey}: a custkey band of width w selects
// 300·w of the top view's points, in pack order custkey-major.
func buildBandForest(t *testing.T) *Forest {
	t.Helper()
	facts := &memRows{cols: []lattice.Attr{"partkey", "suppkey", "custkey"}}
	for p := int64(1); p <= 30; p++ {
		for s := int64(1); s <= 10; s++ {
			for c := int64(1); c <= 100; c++ {
				facts.rows = append(facts.rows, []int64{p, s, c})
				facts.measure = append(facts.measure, p+s+c)
			}
		}
	}
	views := []lattice.View{v("partkey", "suppkey", "custkey"), v("custkey")}
	data, err := cube.Compute(t.TempDir(), facts, views, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(filepath.Join(t.TempDir(), "forest"),
		[]*cube.ViewData{data[views[0].Key()], data[views[1].Key()]}, BuildOptions{
			Domains: map[lattice.Attr]int64{"partkey": 30, "suppkey": 10, "custkey": 100},
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func custBand(hi int64, node ...lattice.Attr) workload.Query {
	return workload.Query{Node: node, Ranges: []workload.Range{{Attr: "custkey", Lo: 1, Hi: hi}}}
}

// TestBandQueryAllocBudget pins the result-assembly cost: a band query
// allocates a small constant however many rows it returns, both when the
// top view's own rows are emitted (and radix-sorted out of pack order) and
// when its points fold into a coarser group-by.
func TestBandQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	f := buildBandForest(t)
	// Each collection makes every sync.Pool in use reallocate its per-P
	// slots, which would charge the larger answer (more bytes, more
	// collections) for the runtime's housekeeping rather than for our code.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, shape := range []struct {
		node       []lattice.Attr
		rowsPerKey int
	}{
		{[]lattice.Attr{"partkey", "suppkey", "custkey"}, 300},
		{[]lattice.Attr{"partkey", "custkey"}, 30},
	} {
		var allocs [2]float64
		for i, hi := range []int64{3, 50} {
			q := custBand(hi, shape.node...)
			rows, err := f.Execute(q)
			if err != nil || len(rows) != int(hi)*shape.rowsPerKey {
				t.Fatalf("%s: %d rows, %v", q, len(rows), err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := f.Execute(q); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %d rows, %v allocs/query", q, len(rows), allocs[i])
		}
		if allocs[0] != allocs[1] || allocs[1] > 64 {
			t.Errorf("node %v: %v allocs over 900 points, %v over 15000; want equal and ≤ 64", shape.node, allocs[0], allocs[1])
		}
	}
}

// TestResultSurvivesNextQuery holds a result the way the server's result
// cache does while later queries reuse the pooled scratch it was built in.
func TestResultSurvivesNextQuery(t *testing.T) {
	f := buildBandForest(t)
	q := custBand(20, "suppkey", "custkey")
	held, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for hi := int64(30); hi <= 50; hi += 10 {
		if _, err := f.Execute(custBand(hi, "partkey", "suppkey", "custkey")); err != nil {
			t.Fatal(err)
		}
	}
	again, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !workload.EqualRows(held, again) {
		t.Fatal("held result changed after later queries")
	}
}

// flipCtx reports context.Canceled from its Err once it has been polled
// more than after times.
type flipCtx struct {
	context.Context
	polls, after int
}

func (c *flipCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// largestLeaf returns the most points any one leaf of tree holds: a search
// over the whole space hands over every leaf as one batch of all its rows.
func largestLeaf(t *testing.T, tree *rtree.Tree) int64 {
	t.Helper()
	lo, hi := make([]int64, tree.Dim()), make([]int64, tree.Dim())
	for j := range hi {
		lo[j], hi[j] = math.MinInt64, math.MaxInt64
	}
	var most int64
	if err := tree.SearchLeaves(lo, hi, func(b *rtree.LeafBatch) error {
		n := int64(0)
		for _, w := range b.Sel {
			n += int64(bits.OnesCount64(w))
		}
		most = max(most, n)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	return most
}

// TestCancelMidScan cancels a 15 k-point band scan between two leaves: the
// scan must stop at the next leaf boundary with the context's error, having
// folded no more than the leaves it was allowed, and unpin everything.
func TestCancelMidScan(t *testing.T) {
	f := buildBandForest(t)
	q := custBand(50, "suppkey", "custkey")
	best, err := f.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	p := &f.placements[best]
	_, total, err := f.executeOn(context.Background(), p, q, nil)
	if err != nil || total != 15000 {
		t.Fatalf("uncancelled scan: %d points, %v", total, err)
	}
	const k = 4 // one poll on entry, then one per leaf
	ctx := &flipCtx{Context: context.Background(), after: k}
	rows, scanned, err := f.executeOn(ctx, p, q, nil)
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("cancelled scan returned %d rows, err %v", len(rows), err)
	}
	if maxLeaf := largestLeaf(t, f.trees[p.Tree]); scanned == 0 || scanned > (k-1)*maxLeaf {
		t.Fatalf("scanned %d points; want within %d leaves of at most %d", scanned, k-1, maxLeaf)
	}
	if ctx.polls != k+1 {
		t.Fatalf("context polled %d times, want %d (the scan went on after cancellation)", ctx.polls, k+1)
	}
	for i, info := range f.PoolInfos() {
		if info.Pinned != 0 {
			t.Fatalf("tree %d: %d frames still pinned", i, info.Pinned)
		}
	}
}
