package rtree

import (
	"path/filepath"
	"slices"
	"testing"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// FuzzLeafPage writes arbitrary bytes over the one leaf of a small tree and
// drives every reader of a leaf page at it: the directory parser,
// SearchLeaves (whose narrowing trusts the major columns to be sorted),
// RunIterator and ScrubLeaves. Bad widths, counts, offsets and kinds, and
// major columns that are not sorted, must come back as an error or as rows,
// never as a panic or a read out of range. A page the scrub accepts whose
// points are in pack order must answer exactly as a brute-force filter of
// its decoded points.
func FuzzLeafPage(f *testing.F) {
	file, err := pager.Create(filepath.Join(f.TempDir(), "fuzz.pg"), nil)
	if err != nil {
		f.Fatal(err)
	}
	pool := pager.NewPool(file, 8)
	defer pool.Close()
	b, err := NewBuilder(pool, 2, Options{})
	if err != nil {
		f.Fatal(err)
	}
	b.BeginRun(2)
	for y := int64(1); y <= 3; y++ {
		for x := int64(1); x <= 40; x++ {
			b.Add([]int64{x, y}, []int64{x * y, 1})
		}
	}
	b.EndRun()
	tree, err := b.Finish()
	if err != nil {
		f.Fatal(err)
	}
	if tree.Height() != 1 {
		f.Fatalf("fuzz tree has height %d, want one leaf", tree.Height())
	}
	leaf := tree.root
	page := func() []byte {
		fr, err := pool.Fetch(leaf)
		if err != nil {
			f.Fatal(err)
		}
		defer pool.Unpin(fr, false)
		return slices.Clone(fr.Data()[:tree.payload()])
	}

	// Seeds: the real v3 leaf, its v2 rendering, and a v3 leaf whose major
	// column runs backwards.
	v3 := page()
	f.Add(v3, int64(5), int64(9), int64(2), int64(2))
	f.Add(v3, int64(-1), int64(100), int64(0), int64(3))
	v2 := make([]byte, len(v3))
	v2cols := make([]enc.ColumnBuilder, 2)
	var v2meas [][]int64
	for x := int64(1); x <= 30; x++ {
		v2cols[0].Append(x)
		v2cols[1].Append(2)
		v2meas = append(v2meas, []int64{-x << 40, 1})
	}
	encodeV2Leaf(v2, v2cols, v2meas)
	f.Add(v2, int64(1), int64(40), int64(2), int64(2))
	cols := make([]enc.ColumnBuilder, 4)
	for i := int64(0); i < 100; i++ {
		for j, v := range []int64{i % 7, 50 - i/10, i, 1} {
			cols[j].Append(v)
		}
	}
	unsorted := make([]byte, len(v3))
	encodeLeaf(unsorted, cols, 2)
	f.Add(unsorted, int64(0), int64(3), int64(45), int64(45))

	f.Fuzz(func(t *testing.T, data []byte, lo0, hi0, lo1, hi1 int64) {
		fr, err := pool.Fetch(leaf)
		if err != nil {
			t.Fatal(err)
		}
		buf := fr.Data()[:tree.payload()]
		clear(buf)
		copy(buf, data)
		pool.Unpin(fr, true)

		var lay leafLayout
		parseErr := parseLeaf(buf, tree.dim, tree.measures, tree.payload(), &lay)
		lo, hi := []int64{lo0, lo1}, []int64{hi0, hi1}
		got, _, searchErr := searchRows(t, tree, lo, hi)
		if (parseErr == nil) != (searchErr == nil) {
			t.Fatalf("parse error %v, search error %v", parseErr, searchErr)
		}
		it := tree.RunIterator(tree.Runs()[0])
		for {
			if _, _, err := it.Next(); err != nil {
				break
			}
		}
		it.Close()
		if _, err := tree.ScrubLeaves(); err != nil || searchErr != nil {
			return
		}
		leaves := decodeLeaves(t, tree)
		rows := leaves[0].rows
		for i := 1; i < len(rows); i++ {
			if !packLess(rows[i-1][:2], rows[i][:2]) {
				return // not in pack order: rows, but no promise which
			}
		}
		if want, _ := bruteSearch(leaves, lo, hi); !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
			t.Fatalf("rect %v..%v: search %v, brute force %v", lo, hi, got, want)
		}
	})
}
