package rtree

import (
	"errors"
	"math/bits"
	"slices"
	"testing"
)

// buildStatsTree packs one arity-1 run (x in [1,xmax], y implicitly 0) and
// one arity-2 run (the full [1,xmax]×[1,ymax] grid), as v3 leaves or through
// the v2 reference writer — the same shared-index-space shape a forest tree
// has, big enough to span multiple leaf pages.
func buildStatsTree(t *testing.T, v2 bool, xmax, ymax int) *Tree {
	t.Helper()
	b := newPacker(t, newPool(t, 256), 2, Options{Measures: 2}, v2)
	if err := b.BeginRun(1); err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= xmax; x++ {
		if err := b.Add([]int64{int64(x)}, []int64{int64(x), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.EndRun(); err != nil {
		t.Fatal(err)
	}
	if err := b.BeginRun(2); err != nil {
		t.Fatal(err)
	}
	for y := 1; y <= ymax; y++ {
		for x := 1; x <= xmax; x++ {
			if err := b.Add([]int64{int64(x), int64(y)}, []int64{int64(x + y), 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := b.EndRun(); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// buildV1StatsTree is buildStatsTree with every leaf relabelled as the
// retired v1 (row-major) kind, which this build recognizes only to refuse.
func buildV1StatsTree(t *testing.T, xmax, ymax int) *Tree {
	t.Helper()
	tree := buildStatsTree(t, false, xmax, ymax)
	for pid := tree.leafLo; pid <= tree.leafHi; pid++ {
		fr, err := tree.pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = kindLeaf
		tree.pool.Unpin(fr, true)
	}
	return tree
}

// TestSearchStatsReadSkipAccounting pins the SearchStats contract: read +
// skipped totals the leaf pages the search considered, skipped is the pages
// the zone extents pruned without decoding, and a nil stats pointer changes
// nothing about the results.
func TestSearchStatsReadSkipAccounting(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		// v1 leaves are no longer read: the search fails on the first leaf
		// it reads, visits no point, and counts no page as read.
		tree := buildV1StatsTree(t, 200, 200)
		var st SearchStats
		n := 0
		err := tree.SearchWithStats([]int64{0, 0}, []int64{201, 201}, func(_, _ []int64) error {
			n++
			return nil
		}, &st)
		if !errors.Is(err, ErrLeafFormatTooOld) {
			t.Fatalf("search over v1 leaves: %v, want ErrLeafFormatTooOld", err)
		}
		if n != 0 || st.LeafPagesRead != 0 {
			t.Fatalf("search over v1 leaves visited %d points, stats %+v", n, st)
		}
	})
	for _, v2 := range []bool{true, false} {
		t.Run(formatName(v2), func(t *testing.T) {
			// Big enough for several v3 leaves, small enough that the tree
			// stays height 2 in v2.
			const xmax, ymax = 200, 200
			tree := buildStatsTree(t, v2, xmax, ymax)
			info, err := tree.ScrubLeaves()
			if err != nil {
				t.Fatal(err)
			}
			leaves := int64(info.V2Leaves + info.V3Leaves)
			if leaves < 4 {
				t.Fatalf("test tree has only %d leaves; grow the grid", leaves)
			}

			// Full-cover scan (y range includes 0, so the arity-1 run too):
			// every leaf is read, nothing is skipped.
			full := [2][]int64{{0, 0}, {xmax + 1, ymax + 1}}
			var fullSt SearchStats
			n := 0
			if err := tree.SearchWithStats(full[0], full[1], func(_, _ []int64) error {
				n++
				return nil
			}, &fullSt); err != nil {
				t.Fatal(err)
			}
			if want := xmax + xmax*ymax; n != want {
				t.Fatalf("full scan visited %d points, want %d", n, want)
			}
			if fullSt.LeafPagesRead != leaves || fullSt.LeafPagesSkipped != 0 {
				t.Fatalf("full scan stats = %+v, want read=%d skipped=0", fullSt, leaves)
			}

			// A narrow band on y: pack order is y-major, so most leaves are
			// pruned by their zone extent; the survivors are read. The tree is
			// height 2 here, so every leaf is considered exactly once and
			// read + skipped must equal the leaf count.
			band := [2][]int64{{0, 7}, {xmax + 1, 7}}
			var bandSt SearchStats
			n = 0
			if err := tree.SearchWithStats(band[0], band[1], func(_, _ []int64) error {
				n++
				return nil
			}, &bandSt); err != nil {
				t.Fatal(err)
			}
			if n != xmax {
				t.Fatalf("band scan visited %d points, want %d", n, xmax)
			}
			if bandSt.LeafPagesSkipped == 0 {
				t.Fatal("band scan skipped no leaves; zone pruning is not being counted")
			}
			if bandSt.LeafPagesRead == 0 || bandSt.LeafPagesRead >= leaves {
				t.Fatalf("band scan read %d of %d leaves", bandSt.LeafPagesRead, leaves)
			}
			if got := bandSt.LeafPagesRead + bandSt.LeafPagesSkipped; got != leaves {
				t.Fatalf("read+skipped = %d, want leaf count %d", got, leaves)
			}

			// Search (no stats) returns identical results: the stats pointer
			// is observation only.
			m := 0
			if err := tree.Search(band[0], band[1], func(_, _ []int64) error {
				m++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if m != n {
				t.Fatalf("Search returned %d points, SearchWithStats %d", m, n)
			}
		})
	}
}

// TestSearchLeavesBatches pins the batch form's contract in both readable
// formats: one call per leaf that has a match and none for the rest,
// full-width coordinate columns with zeros beyond the leaf's arity, and
// selected rows that are exactly the points the per-point form visits, in the
// same order. v1 leaves are refused.
func TestSearchLeavesBatches(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		// v1 leaves are no longer read: no batch is handed out, and the
		// refusal is ErrLeafFormatTooOld, not a misread page.
		tree := buildV1StatsTree(t, 200, 200)
		batches := 0
		err := tree.SearchLeaves([]int64{3, 0}, []int64{40, 9}, func(*LeafBatch) error {
			batches++
			return nil
		}, nil)
		if !errors.Is(err, ErrLeafFormatTooOld) {
			t.Fatalf("SearchLeaves over v1 leaves: %v, want ErrLeafFormatTooOld", err)
		}
		if batches != 0 {
			t.Fatalf("SearchLeaves over v1 leaves handed out %d batches", batches)
		}
	})
	for _, v2 := range []bool{true, false} {
		t.Run(formatName(v2), func(t *testing.T) {
			// Big enough for several v3 leaves, small enough that the tree
			// stays height 2 in v2.
			const xmax, ymax = 200, 200
			tree := buildStatsTree(t, v2, xmax, ymax)
			// x in [3,40], y in [0,9]: part of the arity-1 run and a band of
			// the arity-2 run.
			lo, hi := []int64{3, 0}, []int64{40, 9}
			var want [][4]int64
			if err := tree.Search(lo, hi, func(c, m []int64) error {
				want = append(want, [4]int64{c[0], c[1], m[0], m[1]})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(want) != 38*10 {
				t.Fatalf("Search visited %d points, want %d", len(want), 38*10)
			}
			var got [][4]int64
			var st SearchStats
			batches := int64(0)
			if err := tree.SearchLeaves(lo, hi, func(b *LeafBatch) error {
				batches++
				if len(b.Coords) != 2 || len(b.Measures) != 2 {
					t.Fatalf("batch has %d coordinate and %d measure columns", len(b.Coords), len(b.Measures))
				}
				before := len(got)
				for wi, w := range b.Sel {
					for ; w != 0; w &= w - 1 {
						i := wi*64 + bits.TrailingZeros64(w)
						got = append(got, [4]int64{b.Coords[0][i], b.Coords[1][i], b.Measures[0][i], b.Measures[1][i]})
					}
				}
				if len(got) == before {
					t.Fatal("visitor called for a leaf with no match")
				}
				return nil
			}, &st); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("batches hold %d points, per-point search %d, or in another order", len(got), len(want))
			}
			if batches < 2 || batches > st.LeafPagesRead {
				t.Fatalf("%d batches from %d leaves read", batches, st.LeafPagesRead)
			}
		})
	}
}

// TestSearchStatsAdd covers the nil-safe accumulator used when a profile
// spans shards or trees.
func TestSearchStatsAdd(t *testing.T) {
	var nilStats *SearchStats
	nilStats.Add(&SearchStats{LeafPagesRead: 1}) // must not panic
	total := &SearchStats{LeafPagesRead: 1, LeafPagesSkipped: 2}
	total.Add(nil) // must not panic
	total.Add(&SearchStats{LeafPagesRead: 10, LeafPagesSkipped: 20})
	if total.LeafPagesRead != 11 || total.LeafPagesSkipped != 22 {
		t.Fatalf("accumulated stats = %+v", *total)
	}
}
