package enc

import (
	"math"
	"math/rand"
	"testing"
)

func TestBitWidth64(t *testing.T) {
	cases := []struct {
		min, max int64
		want     uint
	}{
		{0, 0, 0},
		{5, 5, 0},
		{0, 1, 1},
		{0, 255, 8},
		{0, 256, 9},
		{-1, 0, 1},
		{-128, 127, 8},
		{math.MinInt64, math.MaxInt64, 64},
		{math.MinInt64, 0, 64},
		{-1, math.MaxInt64, 64},
	}
	for _, c := range cases {
		if got := BitWidth64(c.min, c.max); got != c.want {
			t.Errorf("BitWidth64(%d, %d) = %d, want %d", c.min, c.max, got, c.want)
		}
	}
}

func minMax(vals []int64) (int64, int64) {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func roundTrip(t *testing.T, vals []int64) {
	t.Helper()
	lo, hi := minMax(vals)
	width := BitWidth64(lo, hi)
	buf := AppendPackedColumn(nil, vals, lo, width)
	if len(buf) != PackedColumnBytes(len(vals), width) {
		t.Fatalf("packed %d bytes, want %d", len(buf), PackedColumnBytes(len(vals), width))
	}
	out := make([]int64, len(vals))
	UnpackColumn(buf, len(vals), lo, width, out)
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("width %d: value %d = %d, want %d", width, i, out[i], vals[i])
		}
	}
	for i := range vals {
		if got := PackedValue(buf, i, lo, width); got != vals[i] {
			t.Fatalf("width %d: PackedValue(%d) = %d, want %d", width, i, got, vals[i])
		}
	}
}

func TestColumnRoundTripWidths(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for width := 0; width <= 64; width++ {
		n := 1 + r.Intn(300)
		vals := make([]int64, n)
		base := r.Int63n(1 << 20)
		for i := range vals {
			if width == 0 {
				vals[i] = base
				continue
			}
			d := r.Uint64()
			if width < 64 {
				d &= 1<<uint(width) - 1
			}
			vals[i] = int64(uint64(base) + d)
		}
		roundTrip(t, vals)
	}
}

func TestColumnRoundTripEdges(t *testing.T) {
	cases := [][]int64{
		{0},
		{math.MaxInt64},
		{math.MinInt64},
		{math.MinInt64, math.MaxInt64},
		{-5, -5, -5, -5},
		{-1000, 1000},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{7, 7, 7, 7, 7, 7, 7, 9}, // run of equal values + one outlier
	}
	for _, vals := range cases {
		roundTrip(t, vals)
	}
}

func TestFilterPackedRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(200)
		vals := make([]int64, n)
		span := int64(1) << uint(r.Intn(20))
		base := r.Int63n(1<<30) - (1 << 29)
		for i := range vals {
			vals[i] = base + r.Int63n(span)
		}
		lo, hi := minMax(vals)
		width := BitWidth64(lo, hi)
		buf := AppendPackedColumn(nil, vals, lo, width)

		qlo := base + r.Int63n(span*2) - span/2
		qhi := qlo + r.Int63n(span)
		if trial%10 == 0 {
			qhi = qlo - 1 // empty range
		}
		sel := make([]uint64, SelectionWords(n))
		FillSelection(sel, n)
		FilterPackedRange(buf, n, lo, width, qlo, qhi, sel)
		for i := 0; i < n; i++ {
			want := vals[i] >= qlo && vals[i] <= qhi
			got := sel[i/64]&(1<<uint(i%64)) != 0
			if got != want {
				t.Fatalf("trial %d: row %d (v=%d, range [%d,%d]): sel=%v want %v",
					trial, i, vals[i], qlo, qhi, got, want)
			}
		}
		// Selection-vector decode fills exactly the surviving rows.
		out := make([]int64, n)
		for i := range out {
			out[i] = math.MinInt64 // sentinel
		}
		UnpackColumnSelect(buf, n, lo, width, sel, out)
		for i := 0; i < n; i++ {
			if sel[i/64]&(1<<uint(i%64)) != 0 {
				if out[i] != vals[i] {
					t.Fatalf("trial %d: selected row %d decoded %d, want %d", trial, i, out[i], vals[i])
				}
			} else if out[i] != math.MinInt64 {
				t.Fatalf("trial %d: unselected row %d was written (%d)", trial, i, out[i])
			}
		}
	}
}

func TestFilterPackedRangeIntersects(t *testing.T) {
	// Filtering twice with two ranges must intersect, not replace.
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	lo, hi := minMax(vals)
	width := BitWidth64(lo, hi)
	buf := AppendPackedColumn(nil, vals, lo, width)
	sel := make([]uint64, 1)
	FillSelection(sel, len(vals))
	FilterPackedRange(buf, len(vals), lo, width, 3, 8, sel)
	FilterPackedRange(buf, len(vals), lo, width, 1, 5, sel)
	for i, v := range vals {
		want := v >= 3 && v <= 5
		if got := sel[0]&(1<<uint(i)) != 0; got != want {
			t.Fatalf("row %d: sel=%v want %v", i, got, want)
		}
	}
	if SelectionEmpty(sel) {
		t.Fatal("selection should not be empty")
	}
	FilterPackedRange(buf, len(vals), lo, width, 100, 200, sel)
	if !SelectionEmpty(sel) {
		t.Fatal("selection should be empty after disjoint filter")
	}
}

func TestColumnBuilder(t *testing.T) {
	var c ColumnBuilder
	if c.Width() != 0 || c.EncodedBytes() != 0 {
		t.Fatal("empty builder should encode to nothing")
	}
	for _, v := range []int64{10, -3, 25, 25, 7} {
		c.Append(v)
	}
	if c.Min() != -3 || c.Max() != 25 {
		t.Fatalf("zone map [%d,%d], want [-3,25]", c.Min(), c.Max())
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	buf := make([]byte, c.EncodedBytes())
	c.Encode(buf)
	out := make([]int64, c.Len())
	UnpackColumn(buf, c.Len(), c.Min(), c.Width(), out)
	want := []int64{10, -3, 25, 25, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("decoded %v, want %v", out, want)
		}
	}

	// PopLast recomputes the zone map.
	c.PopLast() // drop 7
	c.PopLast() // drop 25
	c.PopLast() // drop 25
	if c.Min() != -3 || c.Max() != 10 {
		t.Fatalf("after pops zone map [%d,%d], want [-3,10]", c.Min(), c.Max())
	}
	c.Reset()
	if c.Len() != 0 || c.Width() != 0 {
		t.Fatal("Reset did not empty the builder")
	}
	c.Append(5)
	c.PopLast()
	if c.Min() != 0 || c.Max() != 0 || c.Len() != 0 {
		t.Fatal("PopLast to empty should zero the zone map")
	}
}

// TestSelectRange: SelectRange sets exactly the bits of [a, z), across word
// boundaries and for empty ranges, whatever the bitmap held before.
func TestSelectRange(t *testing.T) {
	const n = 200
	sel := make([]uint64, SelectionWords(n))
	for a := 0; a <= n; a += 7 {
		for z := a - 3; z <= n; z += 5 {
			for i := range sel {
				sel[i] = 0xa5a5a5a5a5a5a5a5
			}
			SelectRange(sel, a, max(z, 0))
			for i := 0; i < len(sel)*64; i++ {
				if got, want := sel[i/64]>>(i%64)&1 == 1, i >= a && i < z; got != want {
					t.Fatalf("SelectRange(%d, %d): bit %d = %v", a, z, i, got)
				}
			}
		}
	}
}
