package rtree

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"cubetree/internal/pager"
)

// buildFormatTree packs the same two-run point set (an arity-1 run and an
// arity-2 run) through the Builder, or through the v2 reference writer.
func buildFormatTree(t *testing.T, pool *pager.Pool, v2 bool, pts1, pts2 [][]int64) *Tree {
	t.Helper()
	b := newPacker(t, pool, 2, Options{Measures: 2}, v2)
	if err := b.BeginRun(1); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts1 {
		if err := b.Add(p[:1], []int64{p[0] * 3, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.EndRun(); err != nil {
		t.Fatal(err)
	}
	if err := b.BeginRun(2); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts2 {
		if err := b.Add(p, []int64{p[0] + p[1], 2}); err != nil {
			t.Fatal(err)
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

// TestV2V3SearchEquivalence: for random point sets and rectangles, a v2 tree
// and a v3 tree built from identical input return identical result sets —
// coordinates and measures — in the style of TestPackedSearchEquivalenceQuick.
func TestV2V3SearchEquivalence(t *testing.T) {
	f := func(raw []uint16, rect [4]uint8) bool {
		seen1 := map[int64]bool{}
		seen2 := map[[2]int64]bool{}
		var pts1, pts2 [][]int64
		for _, r := range raw {
			x, y := int64(r%50)+1, int64(r/50%50)+1
			if !seen1[x] {
				seen1[x] = true
				pts1 = append(pts1, []int64{x})
			}
			if !seen2[[2]int64{x, y}] {
				seen2[[2]int64{x, y}] = true
				pts2 = append(pts2, []int64{x, y})
			}
		}
		sortPack(pts1)
		sortPack(pts2)
		t2 := buildFormatTree(t, newPool(t, 64), true, pts1, pts2)
		t3 := buildFormatTree(t, newPool(t, 64), false, pts1, pts2)
		if len(raw) > 0 {
			i2, err2 := t2.ScrubLeaves()
			i3, err3 := t3.ScrubLeaves()
			if err2 != nil || err3 != nil || i2.V2Leaves == 0 || i2.V3Leaves != 0 || i3.V2Leaves != 0 || i3.V3Leaves == 0 {
				return false
			}
		}
		// Rectangles on the arity-2 plane and on the arity-1 axis (y pinned
		// to 0 so the v8-style run is included).
		rects := [][2][]int64{
			{{int64(rect[0]%50) + 1, int64(rect[1]%50) + 1},
				{int64(rect[0]%50) + 1 + int64(rect[2]%20), int64(rect[1]%50) + 1 + int64(rect[3]%20)}},
			{{int64(rect[0]%50) + 1, 0}, {int64(rect[0]%50) + 1 + int64(rect[2]%20), 0}},
			{{0, 0}, {60, 60}},
		}
		for _, rc := range rects {
			if !slices.EqualFunc(searchAll(t, t2, rc[0], rc[1]), searchAll(t, t3, rc[0], rc[1]), slices.Equal[[]int64]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestV2Persistence: a file of v2 leaves (as every v2 release wrote, here
// from the reference writer) reopens, validates, scrubs and scans correctly
// although nothing writes that layout any more.
func TestV2Persistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.rt")
	f, _ := pager.Create(path, nil)
	pool := pager.NewPool(f, 64)
	b := newPacker(t, pool, 3, Options{}, true)
	b.BeginRun(3)
	pts := make([][]int64, 0, 1000)
	r := rand.New(rand.NewSource(11))
	seen := map[[3]int64]bool{}
	for len(pts) < 1000 {
		p := [3]int64{r.Int63n(40) + 1, r.Int63n(40) + 1, r.Int63n(40) + 1}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, []int64{p[0], p[1], p[2]})
		}
	}
	sortPack(pts)
	for _, p := range pts {
		b.Add(p, []int64{p[0], 1})
	}
	b.EndRun()
	tree, _ := b.Finish()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Close()

	f2, _ := pager.Open(path, nil)
	pool2 := pager.NewPool(f2, 64)
	defer pool2.Close()
	tree2, err := Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree2.Validate(); err != nil {
		t.Fatal(err)
	}
	info, err := tree2.ScrubLeaves()
	if err != nil {
		t.Fatal(err)
	}
	if info.V3Leaves != 0 || info.V2Leaves == 0 || info.Points != int64(len(pts)) {
		t.Fatalf("scrub info = %+v", info)
	}
	got := 0
	tree2.Search([]int64{1, 1, 1}, []int64{40, 40, 40}, func(coords, m []int64) error {
		if m[0] != coords[0] || m[1] != 1 {
			t.Fatalf("measures %v at %v", m, coords)
		}
		got++
		return nil
	})
	if got != len(pts) {
		t.Fatalf("scan found %d of %d points", got, len(pts))
	}
}

// TestV1BackwardCompat: a v1 (row-major) leaf is refused on every read path
// — search, iteration, Validate and ScrubLeaves — with an error errors.Is
// matches as ErrLeafFormatTooOld, never read as garbage.
func TestV1BackwardCompat(t *testing.T) {
	pool := newPool(t, 64)
	b, _ := NewBuilder(pool, 2, Options{})
	b.BeginRun(2)
	for i := int64(1); i <= 50; i++ {
		b.Add([]int64{i, 1}, []int64{i, 1})
	}
	b.EndRun()
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Relabel the one leaf as the retired row-major kind.
	fr, err := pool.Fetch(tree.leafLo)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = kindLeaf
	pool.Unpin(fr, true)

	it := tree.RunIterator(tree.Runs()[0])
	_, _, iterErr := it.Next()
	it.Close()
	_, scrubErr := tree.ScrubLeaves()
	for name, err := range map[string]error{
		"search":   tree.Search([]int64{0, 0}, []int64{100, 100}, func(_, _ []int64) error { return nil }),
		"iterator": iterErr,
		"validate": tree.Validate(),
		"scrub":    scrubErr,
	} {
		if !errors.Is(err, ErrLeafFormatTooOld) {
			t.Errorf("%s on a v1 leaf: %v, want ErrLeafFormatTooOld", name, err)
		}
	}
}

// TestScrubLeavesDetectsCorruption: ScrubLeaves fails on a coordinate or
// measure zone map that disagrees with the decoded column, on an unknown
// node kind, and on an out-of-range bit width.
func TestScrubLeavesDetectsCorruption(t *testing.T) {
	pool := newPool(t, 64)
	b, _ := NewBuilder(pool, 1, Options{})
	b.BeginRun(1)
	for i := int64(1); i <= 300; i++ {
		b.Add([]int64{i}, []int64{i, 1})
	}
	b.EndRun()
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.ScrubLeaves(); err != nil {
		t.Fatalf("clean tree failed scrub: %v", err)
	}

	corrupt := func(mutate func(b []byte)) error {
		fr, err := pool.Fetch(tree.leafLo)
		if err != nil {
			t.Fatal(err)
		}
		mutate(fr.Data())
		pool.Unpin(fr, true)
		_, err = tree.ScrubLeaves()
		return err
	}

	// Bump the first column's zone-map min (bytes 8..16 of the directory
	// entry hold min; entry starts right after the node header).
	if err := corrupt(func(b []byte) { b[nodeHeaderSize]++ }); err == nil {
		t.Fatal("scrub accepted a zone map that disagrees with the column")
	}
	if err := corrupt(func(b []byte) { b[nodeHeaderSize]-- }); err != nil {
		t.Fatalf("scrub still failing after repair: %v", err)
	}
	// A measure's zone map: measure 0 is the directory's entry after the
	// one coordinate.
	if err := corrupt(func(b []byte) { b[nodeHeaderSize+colDescSize+8]++ }); err == nil {
		t.Fatal("scrub accepted a measure zone map that disagrees with the column")
	}
	if err := corrupt(func(b []byte) { b[nodeHeaderSize+colDescSize+8]-- }); err != nil {
		t.Fatalf("scrub still failing after repair: %v", err)
	}
	// Unknown node kind.
	if err := corrupt(func(b []byte) { b[0] = 9 }); err == nil {
		t.Fatal("scrub accepted an unknown leaf kind")
	}
	if err := corrupt(func(b []byte) { b[0] = kindLeafV3 }); err != nil {
		t.Fatalf("scrub still failing after kind repair: %v", err)
	}
	// Out-of-range bit width in the directory.
	if err := corrupt(func(b []byte) { b[nodeHeaderSize+16] = 65 }); err == nil {
		t.Fatal("scrub accepted bit width 65")
	}
}

// TestV3PacksDenser: packing the measures too stores several times more
// points per leaf than v2's packed coordinates beside raw measures — the
// space claim that retired the v2 writer.
func TestV3PacksDenser(t *testing.T) {
	build := func(v2 bool) *Tree {
		pool := newPool(t, 256)
		b := newPacker(t, pool, 3, Options{}, v2)
		b.BeginRun(3)
		r := rand.New(rand.NewSource(3))
		pts := make([][]int64, 0, 20000)
		seen := map[[3]int64]bool{}
		for len(pts) < 20000 {
			p := [3]int64{r.Int63n(100) + 1, r.Int63n(100) + 1, r.Int63n(100) + 1}
			if !seen[p] {
				seen[p] = true
				pts = append(pts, []int64{p[0], p[1], p[2]})
			}
		}
		sortPack(pts)
		for _, p := range pts {
			b.Add(p, []int64{p[0], 1})
		}
		b.EndRun()
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	t2 := build(true)
	t3 := build(false)
	// 3 coordinates of ~7 bits plus 16 raw measure bytes a point in v2;
	// in v3 the SUM column packs to 7 bits and the COUNT column of 1s to 0.
	d2 := float64(t2.Count()) / float64(t2.LeafPages())
	d3 := float64(t3.Count()) / float64(t3.LeafPages())
	if d3 < 3*d2 {
		t.Fatalf("v3 density %.0f points/page vs v2 %.0f: expected >= 3x", d3, d2)
	}
}

// decodedLeaf is one leaf page read back point by point, for brute-force
// oracles: its rows (full-dimensional coordinates, then measures) and MBR.
type decodedLeaf struct {
	rows   [][]int64
	lo, hi []int64
}

// decodeLeaves reads every leaf of tree, in leaf order, through the decoder.
func decodeLeaves(t testing.TB, tree *Tree) []decodedLeaf {
	t.Helper()
	var out []decodedLeaf
	var dec leafDecoder
	for pid := tree.leafLo; pid <= tree.leafHi; pid++ {
		fr, err := tree.pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		err = tree.readLeaf(fr.Data(), &dec)
		tree.pool.Unpin(fr, false)
		if err != nil {
			t.Fatal(err)
		}
		l := decodedLeaf{lo: make([]int64, tree.dim), hi: make([]int64, tree.dim)}
		for i := 0; i < dec.count(); i++ {
			row := make([]int64, tree.dim+tree.measures)
			dec.point(i, row[:tree.dim], row[tree.dim:])
			for j := 0; j < tree.dim; j++ {
				if i == 0 || row[j] < l.lo[j] {
					l.lo[j] = row[j]
				}
				if i == 0 || row[j] > l.hi[j] {
					l.hi[j] = row[j]
				}
			}
			l.rows = append(l.rows, row)
		}
		out = append(out, l)
	}
	return out
}

// bruteSearch filters decoded leaves by [lo, hi] and counts, for a tree of
// height at most 2, the leaves a search reads (its MBR meets the rectangle)
// and skips (the rest).
func bruteSearch(leaves []decodedLeaf, lo, hi []int64) (rows [][]int64, st SearchStats) {
	for _, l := range leaves {
		if len(l.rows) == 0 || !rectsIntersect(l.lo, l.hi, lo, hi) {
			st.LeafPagesSkipped++
			continue
		}
		st.LeafPagesRead++
		for _, row := range l.rows {
			if pointInRect(row[:len(lo)], lo, hi) {
				rows = append(rows, row)
			}
		}
	}
	return rows, st
}

// searchRows collects SearchLeaves' selected rows, coordinates then
// measures, in the order it hands them over.
func searchRows(t testing.TB, tree *Tree, lo, hi []int64) ([][]int64, SearchStats, error) {
	var rows [][]int64
	var st SearchStats
	err := tree.SearchLeaves(lo, hi, func(b *LeafBatch) error {
		for wi, w := range b.Sel {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				var row []int64
				for _, c := range b.Coords {
					row = append(row, c[i])
				}
				for _, c := range b.Measures {
					row = append(row, c[i])
				}
				rows = append(rows, row)
			}
		}
		return nil
	}, &st)
	return rows, st, err
}

// TestNarrowedScanMatchesBruteForce: the leaf scan's binary search over the
// sorted major columns gives exactly the rows and leaf read/skip counts a
// brute-force filter of the decoded points gives, in both readable formats.
// Runs of every arity repeat their major values, some columns are constant
// (width 0), measures of a SUM/COUNT/MIN/MAX schema span MinInt64 to
// MaxInt64, and the rectangles mix equality, ranges, absent values and
// empty ranges on every column.
func TestNarrowedScanMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	doms := [3][]int64{{60, 400, 1500}, {1, 2, 5, 12}, {1, 3, 6}}
	for trial := 0; trial < 12; trial++ {
		wide := trial%2 == 0
		measure := func() int64 {
			switch {
			case wide && r.Intn(4) == 0:
				return extremes[r.Intn(len(extremes))]
			case wide:
				return int64(r.Uint64())
			}
			return r.Int63n(100) - 50
		}
		var dom [3]int64
		for j := range dom {
			dom[j] = doms[j][r.Intn(len(doms[j]))]
		}
		// At most ~20k points: the tree must stay height 2 in v2 too.
		dom[0] = min(dom[0], 30000/(dom[1]*dom[2]))
		// One run per arity, points enumerated in pack order.
		runs := map[int][][]int64{}
		for arity := 3; arity >= 1; arity-- {
			var grid func(suffix []int64, j int)
			grid = func(suffix []int64, j int) {
				if j < 0 {
					if r.Intn(3) > 0 {
						c := slices.Clone(suffix)
						m := []int64{measure(), r.Int63n(5) + 1, measure(), measure()}
						runs[arity] = append(runs[arity], append(c, m...))
					}
					return
				}
				for v := int64(1); v <= dom[j]; v++ {
					grid(append([]int64{v}, suffix...), j-1)
				}
			}
			grid(nil, arity-1)
		}
		build := func(v2 bool) *Tree {
			b := newPacker(t, newPool(t, 256), 3, Options{Measures: 4}, v2)
			for arity := 3; arity >= 1; arity-- {
				if err := b.BeginRun(arity); err != nil {
					t.Fatal(err)
				}
				for _, p := range runs[arity] {
					if err := b.Add(p[:arity], p[arity:]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := b.EndRun(); err != nil {
					t.Fatal(err)
				}
			}
			tree, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if tree.Height() > 2 {
				t.Fatalf("tree of height %d: the brute-force leaf counts assume at most 2", tree.Height())
			}
			return tree
		}
		var all [][]int64 // every point, zero padded to the tree's dimension
		for arity := 3; arity >= 1; arity-- {
			for _, p := range runs[arity] {
				all = append(all, append(slices.Clone(p[:arity]), make([]int64, 3-arity)...))
			}
		}
		for _, v2 := range []bool{true, false} {
			tree := build(v2)
			leaves := decodeLeaves(t, tree)
			for q := 0; q < 60; q++ {
				lo, hi := make([]int64, 3), make([]int64, 3)
				for j := range lo {
					v := all[r.Intn(len(all))][j]
					switch r.Intn(6) {
					case 0:
						lo[j], hi[j] = math.MinInt64, math.MaxInt64
					case 1, 2:
						lo[j], hi[j] = v, v
					case 3:
						lo[j], hi[j] = min(v, all[r.Intn(len(all))][j]), max(v, all[r.Intn(len(all))][j])
					case 4:
						lo[j] = r.Int63n(dom[j] + 2)
						hi[j] = lo[j]
					case 5:
						lo[j], hi[j] = v+1, v // empty
					}
				}
				want, wantSt := bruteSearch(leaves, lo, hi)
				got, gotSt, err := searchRows(t, tree, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, want, slices.Equal[[]int64]) || gotSt != wantSt {
					t.Fatalf("trial %d %s rect %v..%v: %d rows %+v, brute force %d rows %+v",
						trial, formatName(v2), lo, hi, len(got), gotSt, len(want), wantSt)
				}
			}
		}
	}
}
