package rtree

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"cubetree/internal/pager"
)

func newPoolB(b *testing.B, pages int) *pager.Pool {
	b.Helper()
	f, err := pager.Create(filepath.Join(b.TempDir(), "rt.pg"), nil)
	if err != nil {
		b.Fatal(err)
	}
	p := pager.NewPool(f, pages)
	b.Cleanup(func() { p.Close() })
	return p
}

func sortPackB(points [][]int64) {
	sort.Slice(points, func(i, j int) bool { return PackLess(points[i], points[j]) })
}

// BenchmarkSearchFormats compares point- and range-query latency over the
// same data in v3 leaves and in read-only v2 leaves (reference writer).
func BenchmarkSearchFormats(b *testing.B) {
	build := func(v2 bool) *Tree {
		f := newPoolB(b, 512)
		bd := newPacker(b, f, 3, Options{}, v2)
		bd.BeginRun(3)
		r := rand.New(rand.NewSource(3))
		pts := make([][]int64, 0, 50000)
		seen := map[[3]int64]bool{}
		for len(pts) < 50000 {
			p := [3]int64{r.Int63n(200) + 1, r.Int63n(200) + 1, r.Int63n(200) + 1}
			if !seen[p] {
				seen[p] = true
				pts = append(pts, []int64{p[0], p[1], p[2]})
			}
		}
		sortPackB(pts)
		for _, p := range pts {
			bd.Add(p, []int64{p[0], 1})
		}
		bd.EndRun()
		tree, err := bd.Finish()
		if err != nil {
			b.Fatal(err)
		}
		return tree
	}
	for _, v2 := range []bool{true, false} {
		tree := build(v2)
		b.Run("point/"+formatName(v2), func(b *testing.B) {
			r := rand.New(rand.NewSource(9))
			for i := 0; i < b.N; i++ {
				x := r.Int63n(200) + 1
				tree.Search([]int64{x, x, 0}, []int64{x, x, 200}, func([]int64, []int64) error { return nil })
			}
		})
		b.Run("range/"+formatName(v2), func(b *testing.B) {
			r := rand.New(rand.NewSource(9))
			for i := 0; i < b.N; i++ {
				x := r.Int63n(150) + 1
				tree.Search([]int64{x, x, x}, []int64{x + 50, x + 50, x + 50}, func([]int64, []int64) error { return nil })
			}
		})
	}
}
