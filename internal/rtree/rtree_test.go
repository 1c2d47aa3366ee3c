package rtree

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"cubetree/internal/pager"
)

func newPool(t *testing.T, pages int) *pager.Pool {
	t.Helper()
	f, err := pager.Create(filepath.Join(t.TempDir(), "rt.pg"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pager.NewPool(f, pages)
	t.Cleanup(func() { p.Close() })
	return p
}

// sortPack sorts 2-field points in pack order (y-major then x), matching
// the paper's R{x,y} example.
func sortPack(points [][]int64) {
	sort.Slice(points, func(i, j int) bool { return PackLess(points[i], points[j]) })
}

func TestPackOrder(t *testing.T) {
	// Paper Table 4: points of V9 sorted (y,x): (1,1),(2,1),(3,1),(1,3),(3,3)
	pts := [][]int64{{3, 1}, {1, 1}, {1, 3}, {3, 3}, {2, 1}}
	sortPack(pts)
	want := [][]int64{{1, 1}, {2, 1}, {3, 1}, {1, 3}, {3, 3}}
	for i := range want {
		if pts[i][0] != want[i][0] || pts[i][1] != want[i][1] {
			t.Fatalf("pack order[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

// buildPaperTree packs the paper's Section 2.4 example: views V8 (arity 1)
// and V9 (arity 2) in one R{x,y} tree with fan-out 3 (Figure 8).
func buildPaperTree(t *testing.T) *Tree {
	t.Helper()
	pool := newPool(t, 64)
	b, err := NewBuilder(pool, 2, Options{Measures: 2, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Table 2: V8 sorted points (partkey, sum): 1..6
	v8 := []struct{ x, sum int64 }{
		{1, 102}, {2, 84}, {3, 67}, {4, 15}, {5, 24}, {6, 42},
	}
	if err := b.BeginRun(1); err != nil {
		t.Fatal(err)
	}
	for _, p := range v8 {
		if err := b.Add([]int64{p.x}, []int64{p.sum, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.EndRun(); err != nil {
		t.Fatal(err)
	}
	// Table 4: V9 sorted points ((suppkey,custkey), sum).
	v9 := []struct{ x, y, sum int64 }{
		{1, 1, 24}, {2, 1, 6}, {3, 1, 2}, {1, 3, 11}, {3, 3, 17},
	}
	if err := b.BeginRun(2); err != nil {
		t.Fatal(err)
	}
	for _, p := range v9 {
		if err := b.Add([]int64{p.x, p.y}, []int64{p.sum, 1}); err != nil {
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

func TestPaperFigure8(t *testing.T) {
	tree := buildPaperTree(t)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Count() != 11 {
		t.Fatalf("Count = %d, want 11", tree.Count())
	}
	// Fan-out 3 with 6+5 points: V8 fills 2 leaves, V9 fills 2 leaves
	// (runs start new leaves), exactly as Figure 8 draws them.
	if got := tree.LeafPages(); got != 4 {
		t.Fatalf("LeafPages = %d, want 4", got)
	}
	runs := tree.Runs()
	if len(runs) != 2 || runs[0].Arity != 1 || runs[1].Arity != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].Points != 6 || runs[1].Points != 5 {
		t.Fatalf("run points = %d, %d", runs[0].Points, runs[1].Points)
	}

	// Point query on V8: partkey=4 -> 15.
	var got []int64
	err := tree.Search([]int64{4, 0}, []int64{4, 0}, func(coords, measures []int64) error {
		got = append(got, measures[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 15 {
		t.Fatalf("V8 partkey=4 -> %v, want [15]", got)
	}

	// Slice on V9: custkey=3 (y=3, x open >= 1) -> sums 11 and 17.
	var sums []int64
	err = tree.Search([]int64{1, 3}, []int64{math.MaxInt64, 3}, func(coords, measures []int64) error {
		sums = append(sums, measures[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0]+sums[1] != 28 {
		t.Fatalf("V9 custkey=3 -> %v", sums)
	}

	// The V8 region (y=0) never returns V9 points and vice versa.
	n := 0
	tree.Search([]int64{1, 0}, []int64{math.MaxInt64, 0}, func([]int64, []int64) error {
		n++
		return nil
	})
	if n != 6 {
		t.Fatalf("V8 region has %d points, want 6", n)
	}
}

func TestRunIteratorStreamsInOrder(t *testing.T) {
	tree := buildPaperTree(t)
	runs := tree.Runs()
	it := tree.RunIterator(runs[1])
	defer it.Close()
	var xs, ys []int64
	for {
		coords, measures, err := it.Next()
		if Done(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, coords[0])
		ys = append(ys, coords[1])
		_ = measures
	}
	wantX := []int64{1, 2, 3, 1, 3}
	wantY := []int64{1, 1, 1, 3, 3}
	for i := range wantX {
		if xs[i] != wantX[i] || ys[i] != wantY[i] {
			t.Fatalf("run point %d = (%d,%d), want (%d,%d)", i, xs[i], ys[i], wantX[i], wantY[i])
		}
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	pool := newPool(t, 16)
	b, _ := NewBuilder(pool, 2, Options{})
	b.BeginRun(2)
	if err := b.Add([]int64{5, 5}, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int64{4, 5}, []int64{1, 1}); err == nil {
		t.Fatal("accepted out-of-pack-order point")
	}
	if err := b.Add([]int64{5, 5}, []int64{1, 1}); err == nil {
		t.Fatal("accepted duplicate point")
	}
}

func TestBuilderRejectsBadArity(t *testing.T) {
	pool := newPool(t, 16)
	b, _ := NewBuilder(pool, 2, Options{})
	if err := b.BeginRun(3); err == nil {
		t.Fatal("arity above dim accepted")
	}
	b.BeginRun(1)
	if err := b.Add([]int64{1, 2}, []int64{1, 1}); err == nil {
		t.Fatal("wrong-arity point accepted")
	}
	if err := b.Add([]int64{1}, []int64{1}); err == nil {
		t.Fatal("wrong measure count accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	pool := newPool(t, 16)
	b, _ := NewBuilder(pool, 3, Options{})
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Count() != 0 {
		t.Fatal("empty tree has points")
	}
	err = tree.Search([]int64{0, 0, 0}, []int64{10, 10, 10}, func([]int64, []int64) error {
		t.Fatal("match in empty tree")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRun(t *testing.T) {
	pool := newPool(t, 16)
	b, _ := NewBuilder(pool, 2, Options{})
	b.BeginRun(1)
	run, err := b.EndRun()
	if err != nil {
		t.Fatal(err)
	}
	if run.Points != 0 {
		t.Fatal("empty run has points")
	}
	b.BeginRun(2)
	b.Add([]int64{1, 1}, []int64{5, 1})
	b.EndRun()
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	it := tree.RunIterator(run)
	defer it.Close()
	if _, _, err := it.Next(); !Done(err) {
		t.Fatalf("empty run iterator: %v", err)
	}
}

// TestLargePackAndSearch packs 60k points: a leaf holds ~2k of them, and the
// leaf share of the file only shows once the leaves outnumber the meta page
// and the index levels by far.
func TestLargePackAndSearch(t *testing.T) {
	pool := newPool(t, 512)
	b, _ := NewBuilder(pool, 3, Options{})
	pts := make([][]int64, 0, 60000)
	r := rand.New(rand.NewSource(5))
	seen := map[[3]int64]bool{}
	for len(pts) < 60000 {
		p := [3]int64{r.Int63n(100) + 1, r.Int63n(100) + 1, r.Int63n(100) + 1}
		if seen[p] {
			continue
		}
		seen[p] = true
		pts = append(pts, []int64{p[0], p[1], p[2]})
	}
	sortPack(pts)
	b.BeginRun(3)
	for _, p := range pts {
		if err := b.Add(p, []int64{p[0] + p[1] + p[2], 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRun()
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() < 2 {
		t.Fatalf("60k points, height %d", tree.Height())
	}
	// Leaf domination: packed trees should be almost all leaves.
	if ratio := float64(tree.LeafPages()) / float64(tree.Pages()); ratio < 0.85 {
		t.Fatalf("leaf page ratio %.2f, want >= 0.85", ratio)
	}

	// Compare several range searches against brute force.
	for trial := 0; trial < 20; trial++ {
		lo := []int64{r.Int63n(80) + 1, r.Int63n(80) + 1, r.Int63n(80) + 1}
		hi := []int64{lo[0] + r.Int63n(20), lo[1] + r.Int63n(20), lo[2] + r.Int63n(20)}
		want := 0
		for _, p := range pts {
			if p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1] && p[2] >= lo[2] && p[2] <= hi[2] {
				want++
			}
		}
		got := 0
		err := tree.Search(lo, hi, func(coords, measures []int64) error {
			if measures[0] != coords[0]+coords[1]+coords[2] {
				t.Fatalf("measure corrupted at %v", coords)
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: search found %d, brute force %d", trial, got, want)
		}
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	// The same arity-1 view stored in a dim-4 tree must not cost 4x: leaves
	// store only one coordinate per point.
	build := func(dim int) int64 {
		pool := newPool(t, 256)
		b, _ := NewBuilder(pool, dim, Options{})
		b.BeginRun(1)
		for i := int64(1); i <= 50000; i++ {
			b.Add([]int64{i}, []int64{i, 1})
		}
		b.EndRun()
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tree.Bytes()
	}
	b1 := build(1)
	b4 := build(4)
	if float64(b4) > float64(b1)*1.2 {
		t.Fatalf("dim-4 embedding costs %d bytes vs %d at dim-1: compression missing", b4, b1)
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "persist.rt")
	f, _ := pager.Create(path, nil)
	pool := pager.NewPool(f, 64)
	b, _ := NewBuilder(pool, 2, Options{Fanout: 3})
	b.BeginRun(2)
	for i := int64(1); i <= 30; i++ {
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
	if tree2.Count() != 30 || tree2.Dim() != 2 || len(tree2.Runs()) != 1 {
		t.Fatalf("reopened: count=%d dim=%d runs=%d", tree2.Count(), tree2.Dim(), len(tree2.Runs()))
	}
	if err := tree2.Validate(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	tree2.Search([]int64{1, 1}, []int64{math.MaxInt64, 1}, func(_, m []int64) error {
		sum += m[0]
		return nil
	})
	if sum != 10*(30*31/2) {
		t.Fatalf("sum after reopen = %d", sum)
	}
}

func TestFourMeasurePayload(t *testing.T) {
	// The paper's footnote 3: multiple aggregation functions per point.
	pool := newPool(t, 64)
	b, err := NewBuilder(pool, 2, Options{Measures: 4})
	if err != nil {
		t.Fatal(err)
	}
	b.BeginRun(2)
	// payload: sum, count, min, max
	if err := b.Add([]int64{1, 1}, []int64{10, 2, 3, 7}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int64{2, 1}, []int64{5, 1, 5, 5}); err != nil {
		t.Fatal(err)
	}
	b.EndRun()
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Measures() != 4 {
		t.Fatalf("Measures = %d", tree.Measures())
	}
	var got [][]int64
	err = tree.Search([]int64{1, 1}, []int64{2, 1}, func(coords, measures []int64) error {
		got = append(got, append([]int64(nil), measures...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][2] != 3 || got[0][3] != 7 || got[1][0] != 5 {
		t.Fatalf("measures = %v", got)
	}
	// Merge with a min/max-aware combiner.
	pool2 := newPool(t, 64)
	b2, _ := NewBuilder(pool2, 2, Options{Measures: 4})
	b2.BeginRun(2)
	delta := &SlicePoints{
		Coords:   [][]int64{{1, 1}},
		Measures: [][]int64{{4, 1, 1, 4}},
	}
	combine := func(dst, src []int64) {
		dst[0] += src[0]
		dst[1] += src[1]
		if src[2] < dst[2] {
			dst[2] = src[2]
		}
		if src[3] > dst[3] {
			dst[3] = src[3]
		}
	}
	if err := MergeRun(b2, 2, tree.RunIterator(tree.Runs()[0]), delta, combine); err != nil {
		t.Fatal(err)
	}
	b2.EndRun()
	merged, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var m []int64
	merged.Search([]int64{1, 1}, []int64{1, 1}, func(_, measures []int64) error {
		m = append([]int64(nil), measures...)
		return nil
	})
	if m[0] != 14 || m[1] != 3 || m[2] != 1 || m[3] != 7 {
		t.Fatalf("merged measures = %v", m)
	}
}

// TestPackedSearchEquivalenceQuick: for random point sets, tree search
// matches brute force on random rectangles.
func TestPackedSearchEquivalenceQuick(t *testing.T) {
	f := func(raw []uint16, rect [4]uint8) bool {
		seen := map[[2]int64]bool{}
		var pts [][]int64
		for _, r := range raw {
			p := [2]int64{int64(r%50) + 1, int64(r/50%50) + 1}
			if !seen[p] {
				seen[p] = true
				pts = append(pts, []int64{p[0], p[1]})
			}
		}
		sortPack(pts)
		pool := newPool(t, 64)
		b, _ := NewBuilder(pool, 2, Options{Fanout: 4})
		b.BeginRun(2)
		for _, p := range pts {
			if err := b.Add(p, []int64{1, 1}); err != nil {
				return false
			}
		}
		b.EndRun()
		tree, err := b.Finish()
		if err != nil {
			return false
		}
		lo := []int64{int64(rect[0]%50) + 1, int64(rect[1]%50) + 1}
		hi := []int64{lo[0] + int64(rect[2]%20), lo[1] + int64(rect[3]%20)}
		want := 0
		for _, p := range pts {
			if p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1] {
				want++
			}
		}
		got := 0
		tree.Search(lo, hi, func([]int64, []int64) error { got++; return nil })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderAddAllocatesNothing: adding a point compares it with the last
// one in pack order without widening either to the tree's dimension, and
// buffers it into column builders that keep their capacity from leaf to
// leaf, so packing costs no allocation per point.
func TestBuilderAddAllocatesNothing(t *testing.T) {
	b, err := NewBuilder(newPool(t, 64), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.BeginRun(2); err != nil {
		t.Fatal(err)
	}
	coords, measures := make([]int64, 2), make([]int64, 2)
	add := func() {
		coords[0]++
		coords[1] = coords[0] / 1000
		measures[0], measures[1] = coords[0], 1
		if err := b.Add(coords, measures); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ { // several leaves: the buffers reach full size
		add()
	}
	if n := testing.AllocsPerRun(1000, add); n != 0 {
		t.Fatalf("Builder.Add allocates %.0f times per point", n)
	}
}
