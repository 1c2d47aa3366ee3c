// Column block codec: frame-of-reference delta encoding with bit packing.
//
// A column block stores n int64 values as (v - base) deltas of a fixed bit
// width, packed LSB-first into a contiguous bit stream. The base is the
// column minimum, so deltas are non-negative and the width is
// bits(max - min); a run of equal values packs to width 0 and costs no data
// bytes at all. Arithmetic is done on uint64 two's-complement images, so the
// codec is exact for the full int64 range (including blocks spanning
// negative and positive values, whose delta range can exceed MaxInt64).
//
// The codec is deliberately dumb about layout: callers (the R-tree leaf
// format, the shard wire's row-set block, tests) own headers, directories and
// zone maps, and hand this package exactly the packed bytes of one column. Decoding offers three
// shapes matched to the leaf scan's phases: full decode (UnpackColumn),
// predicate evaluation on packed data into a selection bitmap
// (FilterPackedRange), and late materialization of only the selected rows
// (UnpackColumnSelect).
package enc

import (
	"encoding/binary"
	"math/bits"
)

// BitWidth64 returns the number of bits needed to store any value in
// [min, max] as a delta from min. The result is 0 when min == max and at
// most 64.
func BitWidth64(min, max int64) uint {
	return uint(bits.Len64(uint64(max) - uint64(min)))
}

// PackedColumnBytes returns the encoded size of n values at the given bit
// width, rounded up to whole bytes.
func PackedColumnBytes(n int, width uint) int {
	return (n*int(width) + 7) / 8
}

// widthMask returns a mask of the low width bits (width <= 64).
func widthMask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<width - 1
}

// PackColumn encodes vals as base-relative deltas of the given width into
// dst, which must hold PackedColumnBytes(len(vals), width) ZEROED bytes (the
// packer ORs bits in). Every value must satisfy v >= base and
// v-base < 2^width; PackColumn does not validate, garbage in is garbage out.
func PackColumn(dst []byte, vals []int64, base int64, width uint) {
	if width == 0 {
		return
	}
	bitPos := 0
	for _, v := range vals {
		d := uint64(v) - uint64(base)
		off := bitPos >> 3
		shift := uint(bitPos & 7)
		lo := d << shift
		nbytes := (int(shift) + int(width) + 7) / 8
		for k := 0; k < nbytes && k < 8; k++ {
			dst[off+k] |= byte(lo >> (8 * k))
		}
		if shift > 0 && shift+width > 64 {
			dst[off+8] |= byte(d >> (64 - shift))
		}
		bitPos += int(width)
	}
}

// AppendPackedColumn appends the packed encoding of vals to dst and returns
// the extended slice.
func AppendPackedColumn(dst []byte, vals []int64, base int64, width uint) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, PackedColumnBytes(len(vals), width))...)
	PackColumn(dst[n:], vals, base, width)
	return dst
}

// extractBits reads width bits starting at bitPos from src. src needs only
// hold the packed stream itself; reads near the end fall back to a
// byte-accumulation path so no padding is required after the block.
func extractBits(src []byte, bitPos int, width uint, mask uint64) uint64 {
	off := bitPos >> 3
	shift := uint(bitPos & 7)
	if off+8 <= len(src) {
		w := binary.LittleEndian.Uint64(src[off:]) >> shift
		if shift+width > 64 && off+8 < len(src) {
			w |= uint64(src[off+8]) << (64 - shift)
		}
		return w & mask
	}
	var w uint64
	for k := len(src) - 1; k >= off; k-- {
		w = w<<8 | uint64(src[k])
	}
	return (w >> shift) & mask
}

// UnpackColumn decodes n values from src into out[:n].
func UnpackColumn(src []byte, n int, base int64, width uint, out []int64) {
	if width == 0 {
		for i := 0; i < n; i++ {
			out[i] = base
		}
		return
	}
	mask := widthMask(width)
	bitPos := 0
	for i := 0; i < n; i++ {
		out[i] = int64(uint64(base) + extractBits(src, bitPos, width, mask))
		bitPos += int(width)
	}
}

// PackedValue decodes value i of a packed column (random access).
func PackedValue(src []byte, i int, base int64, width uint) int64 {
	if width == 0 {
		return base
	}
	return int64(uint64(base) + extractBits(src, i*int(width), width, widthMask(width)))
}

// SelectionWords returns the number of uint64 words a selection bitmap over
// n rows needs.
func SelectionWords(n int) int { return (n + 63) / 64 }

// FillSelection sets the first n bits of sel (and clears any tail bits of
// the last word), the all-rows-pass starting state of a leaf scan.
func FillSelection(sel []uint64, n int) {
	for i := range sel {
		sel[i] = ^uint64(0)
	}
	if tail := uint(n & 63); tail != 0 && len(sel) > 0 {
		sel[len(sel)-1] = 1<<tail - 1
	}
}

// SelectRange sets exactly bits [a, z) of sel, the starting state of a leaf
// scan whose sorted columns have already narrowed it to a row range.
func SelectRange(sel []uint64, a, z int) {
	clear(sel)
	if a >= z {
		return
	}
	first, last := a>>6, (z-1)>>6
	for w := first; w <= last; w++ {
		sel[w] = ^uint64(0)
	}
	sel[first] &= ^uint64(0) << uint(a&63)
	sel[last] &= ^uint64(0) >> uint(63-(z-1)&63)
}

// SelectionEmpty reports whether no bit of sel is set.
func SelectionEmpty(sel []uint64) bool {
	for _, w := range sel {
		if w != 0 {
			return false
		}
	}
	return true
}

// FilterPackedRange evaluates lo <= v <= hi over a packed column and clears
// the selection bit of every row that fails, evaluating only rows still
// selected. The comparison happens in delta space — the base is subtracted
// from the bounds once, not from every row. Rows past n are ignored.
func FilterPackedRange(src []byte, n int, base int64, width uint, lo, hi int64, sel []uint64) {
	if hi < lo {
		for i := range sel {
			sel[i] = 0
		}
		return
	}
	// Map bounds into delta space, clamping to the representable range.
	var dlo, dhi uint64
	if lo > base {
		dlo = uint64(lo) - uint64(base)
	}
	maxDelta := widthMask(width)
	if hi >= base {
		dhi = uint64(hi) - uint64(base)
		if dhi > maxDelta {
			dhi = maxDelta
		}
	} else {
		// hi < base: nothing can pass.
		for i := range sel {
			sel[i] = 0
		}
		return
	}
	if dlo > maxDelta {
		for i := range sel {
			sel[i] = 0
		}
		return
	}
	if width == 0 {
		// Single value 0; dlo == 0 means it passes (dhi >= dlo held above).
		if dlo > 0 {
			for i := range sel {
				sel[i] = 0
			}
		}
		return
	}
	mask := widthMask(width)
	for wi := range sel {
		if sel[wi] == 0 {
			continue
		}
		row0 := wi * 64
		cnt := n - row0
		if cnt <= 0 {
			break
		}
		if cnt > 64 {
			cnt = 64
		}
		// Decode the word's rows with a sequential bit cursor and build the
		// pass mask in one tight loop; evaluating a skipped row costs less
		// than the per-bit bookkeeping of chasing the selection. Widths up to
		// 57 fit any 8-byte load (shift <= 7), so the fast path can read a
		// whole word per row as long as the last row's load stays in bounds.
		bitPos := row0 * int(width)
		var pass uint64
		if width <= 57 && (bitPos+(cnt-1)*int(width))>>3+8 <= len(src) {
			for i := 0; i < cnt; i++ {
				d := binary.LittleEndian.Uint64(src[bitPos>>3:]) >> uint(bitPos&7) & mask
				if d-dlo <= dhi-dlo {
					pass |= 1 << uint(i)
				}
				bitPos += int(width)
			}
		} else {
			for i := 0; i < cnt; i++ {
				d := extractBits(src, bitPos, width, mask)
				if d-dlo <= dhi-dlo {
					pass |= 1 << uint(i)
				}
				bitPos += int(width)
			}
		}
		sel[wi] &= pass
	}
}

// UnpackColumnSelect decodes only the selected rows of a packed column into
// their positions of out (unselected slots are left untouched). This is the
// late-materialization decode: after the predicate columns have shrunk the
// selection, the remaining columns pay only for surviving rows.
func UnpackColumnSelect(src []byte, n int, base int64, width uint, sel []uint64, out []int64) {
	if width == 0 {
		for wi := range sel {
			w := sel[wi]
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				w &^= 1 << uint(bit)
				if i := wi*64 + bit; i < n {
					out[i] = base
				}
			}
		}
		return
	}
	mask := widthMask(width)
	for wi := range sel {
		w := sel[wi]
		if w == 0 {
			continue
		}
		row0 := wi * 64
		// Dense word: decode its 64 rows with a sequential bit cursor, the
		// same fast path FilterPackedRange uses. A column the zone map proved
		// fully inside the query never shrinks the selection, so this is the
		// common shape for deferred columns.
		if w == ^uint64(0) && row0+64 <= n && width <= 57 {
			bitPos := row0 * int(width)
			if (bitPos+63*int(width))>>3+8 <= len(src) {
				for i := 0; i < 64; i++ {
					out[row0+i] = int64(uint64(base) + binary.LittleEndian.Uint64(src[bitPos>>3:])>>uint(bitPos&7)&mask)
					bitPos += int(width)
				}
				continue
			}
		}
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			i := row0 + bit
			if i >= n {
				return
			}
			out[i] = int64(uint64(base) + extractBits(src, i*int(width), width, mask))
		}
	}
}

// ColumnBuilder accumulates one column's values and tracks the min/max zone
// map, answering the encoded size so a page builder can decide when a leaf
// is full. Appending never allocates beyond the value buffer, and Reset
// reuses it for the next leaf.
type ColumnBuilder struct {
	vals     []int64
	min, max int64
}

// Append adds v to the column.
func (c *ColumnBuilder) Append(v int64) {
	if len(c.vals) == 0 {
		c.min, c.max = v, v
	} else {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	c.vals = append(c.vals, v)
}

// PopLast removes the most recently appended value, recomputing the zone
// map. Page builders use it when the value that overflowed the page must
// move to the next leaf.
func (c *ColumnBuilder) PopLast() {
	c.vals = c.vals[:len(c.vals)-1]
	if len(c.vals) == 0 {
		c.min, c.max = 0, 0
		return
	}
	c.min, c.max = c.vals[0], c.vals[0]
	for _, v := range c.vals[1:] {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
}

// Len returns the number of appended values.
func (c *ColumnBuilder) Len() int { return len(c.vals) }

// Min returns the column minimum (0 when empty).
func (c *ColumnBuilder) Min() int64 { return c.min }

// Max returns the column maximum (0 when empty).
func (c *ColumnBuilder) Max() int64 { return c.max }

// Width returns the bit width the column packs to.
func (c *ColumnBuilder) Width() uint {
	if len(c.vals) == 0 {
		return 0
	}
	return BitWidth64(c.min, c.max)
}

// EncodedBytes returns the packed size of the column at its current width.
func (c *ColumnBuilder) EncodedBytes() int {
	return PackedColumnBytes(len(c.vals), c.Width())
}

// Values returns the appended values (aliased, valid until Reset).
func (c *ColumnBuilder) Values() []int64 { return c.vals }

// Encode packs the column into dst, which must hold EncodedBytes() zeroed
// bytes.
func (c *ColumnBuilder) Encode(dst []byte) {
	PackColumn(dst, c.vals, c.min, c.Width())
}

// Reset empties the builder, keeping the value buffer.
func (c *ColumnBuilder) Reset() {
	c.vals = c.vals[:0]
	c.min, c.max = 0, 0
}
