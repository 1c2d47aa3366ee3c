package rtree

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"cubetree/internal/pager"
)

// buildFormatTree packs the same two-run point set (an arity-1 run and an
// arity-2 run) through the Builder, or through the v1 reference writer.
func buildFormatTree(t *testing.T, pool *pager.Pool, v1 bool, v1pts, v2pts [][]int64) *Tree {
	t.Helper()
	b := newPacker(t, pool, 2, Options{Measures: 2}, v1)
	if err := b.BeginRun(1); err != nil {
		t.Fatal(err)
	}
	for _, p := range v1pts {
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
	for _, p := range v2pts {
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

// TestV1V2SearchEquivalence: for random point sets and rectangles, a v1 tree
// and a v2 tree built from identical input return identical result sets —
// coordinates and measures — in the style of TestPackedSearchEquivalenceQuick.
func TestV1V2SearchEquivalence(t *testing.T) {
	f := func(raw []uint16, rect [4]uint8) bool {
		seen1 := map[int64]bool{}
		seen2 := map[[2]int64]bool{}
		var v1pts, v2pts [][]int64
		for _, r := range raw {
			x, y := int64(r%50)+1, int64(r/50%50)+1
			if !seen1[x] {
				seen1[x] = true
				v1pts = append(v1pts, []int64{x})
			}
			if !seen2[[2]int64{x, y}] {
				seen2[[2]int64{x, y}] = true
				v2pts = append(v2pts, []int64{x, y})
			}
		}
		sortPack(v1pts)
		sortPack(v2pts)
		t1 := buildFormatTree(t, newPool(t, 64), true, v1pts, v2pts)
		t2 := buildFormatTree(t, newPool(t, 64), false, v1pts, v2pts)
		if len(raw) > 0 {
			i1, err1 := t1.ScrubLeaves()
			i2, err2 := t2.ScrubLeaves()
			if err1 != nil || err2 != nil || i1.V1Leaves == 0 || i1.V2Leaves != 0 || i2.V1Leaves != 0 || i2.V2Leaves == 0 {
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
			if !slices.EqualFunc(searchAll(t, t1, rc[0], rc[1]), searchAll(t, t2, rc[0], rc[1]), slices.Equal[[]int64]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestV2Persistence: a v2 tree survives close and reopen — Validate passes,
// searches answer, and the scrub census finds v2 leaves only.
func TestV2Persistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.rt")
	f, _ := pager.Create(path, nil)
	pool := pager.NewPool(f, 64)
	b, _ := NewBuilder(pool, 2, Options{})
	b.BeginRun(2)
	for i := int64(1); i <= 500; i++ {
		b.Add([]int64{i, 1}, []int64{i * 10, 1})
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
	var sum int64
	tree2.Search([]int64{100, 1}, []int64{200, 1}, func(coords, m []int64) error {
		if m[0] != coords[0]*10 {
			t.Fatalf("measure %d at %v", m[0], coords)
		}
		sum += m[0]
		return nil
	})
	if want := int64(10 * (100 + 200) * 101 / 2); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	info, err := tree2.ScrubLeaves()
	if err != nil {
		t.Fatal(err)
	}
	if info.V1Leaves != 0 || info.V2Leaves == 0 || info.Points != 500 {
		t.Fatalf("scrub info = %+v", info)
	}
}

// TestV1BackwardCompat: a file of v1 leaves (as every pre-v2 release wrote,
// here from the reference writer) reopens, validates, scrubs and scans
// correctly although nothing writes that layout any more.
func TestV1BackwardCompat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.rt")
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
	if info.V2Leaves != 0 || info.V1Leaves == 0 {
		t.Fatalf("scrub info = %+v", info)
	}
	got := 0
	tree2.Search([]int64{1, 1, 1}, []int64{40, 40, 40}, func(coords, m []int64) error {
		if m[0] != coords[0] {
			t.Fatalf("measure %d at %v", m[0], coords)
		}
		got++
		return nil
	})
	if got != len(pts) {
		t.Fatalf("scan found %d of %d points", got, len(pts))
	}
}

// TestScrubLeavesDetectsCorruption: ScrubLeaves fails on a v2 zone map that
// disagrees with the decoded column, and on an unknown node kind.
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
	// Unknown node kind.
	if err := corrupt(func(b []byte) { b[0] = 9 }); err == nil {
		t.Fatal("scrub accepted an unknown leaf kind")
	}
	if err := corrupt(func(b []byte) { b[0] = kindLeafV2 }); err != nil {
		t.Fatalf("scrub still failing after kind repair: %v", err)
	}
	// Out-of-range bit width in the directory.
	if err := corrupt(func(b []byte) { b[nodeHeaderSize+16] = 65 }); err == nil {
		t.Fatal("scrub accepted bit width 65")
	}
}

// TestV2PacksDenser: on small-domain data, the columnar format stores
// several times more points per leaf than the fixed-width v1 layout — the
// space claim that retired the v1 writer.
func TestV2PacksDenser(t *testing.T) {
	build := func(v1 bool) *Tree {
		pool := newPool(t, 256)
		b := newPacker(t, pool, 3, Options{}, v1)
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
	t1 := build(true)
	t2 := build(false)
	if t2.LeafPages() >= t1.LeafPages() {
		t.Fatalf("v2 uses %d leaf pages, v1 %d: columnar packing saved nothing",
			t2.LeafPages(), t1.LeafPages())
	}
	// 3 coords in ~7 bits each plus 2 raw measures vs 5×8 bytes: expect a
	// large density win, not a marginal one.
	d1 := float64(t1.Count()) / float64(t1.LeafPages())
	d2 := float64(t2.Count()) / float64(t2.LeafPages())
	if d2 < 1.8*d1 {
		t.Fatalf("v2 density %.0f points/page vs v1 %.0f: expected >= 1.8x", d2, d1)
	}
}
