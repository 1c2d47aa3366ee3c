package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// Leaf format v3, the one layout Builder writes: column-major leaf pages in
// which every column is packed (byte-level tables in docs/FORMAT.md).
//
//	node header (8 bytes)   kind=kindLeafV3, aux=arity, count u16
//	column directory        (arity + measures) × 17 bytes: min i64, max i64,
//	                        bit width u8 — the coordinates, then the measures
//	packed columns          one per directory entry, ceil(count·width/8) bytes
//	                        of frame-of-reference deltas (enc.PackColumn)
//
// A measure is packed exactly like a coordinate: the paper's leaves store
// only a view's useful coordinates, and a point's SUM and COUNT are as
// compressible as its keys (a COUNT column of a top view is mostly 1s and
// packs to a bit or two per point). The directory doubles as a per-leaf zone
// map: a scan whose rectangle misses [min,max] on any coordinate skips the
// whole leaf, and a column whose zone lies entirely inside the rectangle is
// never evaluated as a predicate. Measures are materialized only for the rows
// that survive every coordinate predicate.
//
// Pack order is last-coordinate-major, so inside one leaf column arity−1 is
// sorted, and each earlier column is sorted within a run of equal values in
// the columns after it. searchLeaf binary-searches those major columns down
// to a row range before it filters anything.
//
// Versioning: leaves self-describe through the node kind byte. The tree
// reads the format it writes plus one read-only predecessor, v2, whose
// directory covers the coordinates only and whose measures follow the packed
// columns as raw little-endian int64s, measure-major. Merge-pack reads an old
// tree through RunIterator and writes through Builder, so a refresh is the
// migration. A v1 (row-major) leaf is refused with ErrLeafFormatTooOld.

const (
	kindLeafV2 = 2
	kindLeafV3 = 3

	// colDescSize is the bytes per column directory entry: min, max, width.
	colDescSize = 8 + 8 + 1
)

// PackFormat names the one leaf layout Builder writes; it labels the
// build_info gauge and has no other reader.
const PackFormat = "v3"

// ErrLeafFormatTooOld marks a leaf in a layout this build no longer reads
// (v1, row-major): errors.Is matches it on every read path.
var ErrLeafFormatTooOld = errors.New("rtree: leaf format too old")

// colDesc is one decoded column directory entry.
type colDesc struct {
	min, max int64
	width    uint
}

// leafLayout resolves the region offsets of a v2 or v3 leaf from its header
// and directory. All offsets are relative to the start of the page payload.
type leafLayout struct {
	arity   int
	n       int
	rawMeas bool      // v2: measures are raw, not described by the directory
	desc    []colDesc // arity coordinates, then (v3) one per measure; reused across leaves
	colOff  []int     // byte offset of each packed column
	measOff int       // v2: byte offset of the raw measure region
}

// parseLeaf decodes the directory of leaf page b into lay, validating that
// every region stays inside the payload. dim and measures are the tree's;
// payload the usable page bytes.
func parseLeaf(b []byte, dim, measures, payload int, lay *leafLayout) error {
	switch kind := nodeKind(b); kind {
	case kindLeafV2, kindLeafV3:
		lay.rawMeas = kind == kindLeafV2
	case kindLeaf:
		return fmt.Errorf("%w: v1 row-major leaf", ErrLeafFormatTooOld)
	default:
		return fmt.Errorf("rtree: unknown leaf format (node kind %d)", kind)
	}
	lay.arity = int(nodeAux(b))
	lay.n = nodeCount(b)
	if lay.arity > dim {
		return fmt.Errorf("rtree: leaf arity %d exceeds tree dimension %d", lay.arity, dim)
	}
	ncols := lay.arity
	if !lay.rawMeas {
		ncols += measures
	}
	if cap(lay.desc) < ncols {
		lay.desc = make([]colDesc, ncols)
		lay.colOff = make([]int, ncols)
	}
	lay.desc = lay.desc[:ncols]
	lay.colOff = lay.colOff[:ncols]
	off := nodeHeaderSize + ncols*colDescSize
	if off > payload || off > len(b) {
		return fmt.Errorf("rtree: leaf directory (%d columns) exceeds page payload", ncols)
	}
	for j := range lay.desc {
		d := nodeHeaderSize + j*colDescSize
		lay.desc[j].min = int64(binary.LittleEndian.Uint64(b[d:]))
		lay.desc[j].max = int64(binary.LittleEndian.Uint64(b[d+8:]))
		lay.desc[j].width = uint(b[d+16])
		if lay.desc[j].width > 64 {
			return fmt.Errorf("rtree: leaf column %d bit width %d out of range", j, lay.desc[j].width)
		}
		lay.colOff[j] = off
		off += enc.PackedColumnBytes(lay.n, lay.desc[j].width)
	}
	lay.measOff = off
	if lay.rawMeas {
		off += lay.n * measures * enc.FieldSize
	}
	if off > payload || off > len(b) {
		return fmt.Errorf("rtree: leaf regions (%d bytes) exceed page payload (%d)", off, payload)
	}
	return nil
}

// col returns the packed bytes of directory column j.
func (lay *leafLayout) col(b []byte, j int) []byte {
	return b[lay.colOff[j] : lay.colOff[j]+enc.PackedColumnBytes(lay.n, lay.desc[j].width)]
}

// unpack decodes the rows of column j selected by sel into their positions
// of out: coordinate j for j < arity, measure j−arity beyond.
func (lay *leafLayout) unpack(b []byte, j int, sel []uint64, out []int64) {
	if j >= lay.arity && lay.rawMeas {
		off := lay.measOff + (j-lay.arity)*lay.n*enc.FieldSize
		for wi, w := range sel {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				out[i] = enc.Field(b[off:], i)
			}
		}
		return
	}
	d := lay.desc[j]
	enc.UnpackColumnSelect(lay.col(b, j), lay.n, d.min, d.width, sel, out)
}

// value decodes row i of column j.
func (lay *leafLayout) value(b []byte, j, i int) int64 {
	return enc.PackedValue(lay.col(b, j), i, lay.desc[j].min, lay.desc[j].width)
}

// lowerBound returns the first row in [a, z) of the sorted column j whose
// value is >= v, or > v when strict.
func (lay *leafLayout) lowerBound(b []byte, j, a, z int, v int64, strict bool) int {
	for a < z {
		m := int(uint(a+z) >> 1)
		if x := lay.value(b, j, m); x < v || strict && x == v {
			a = m + 1
		} else {
			z = m
		}
	}
	return a
}

// leafEncodedSize returns the page bytes a v3 leaf of n points needs given
// its column builders' current widths.
func leafEncodedSize(cols []enc.ColumnBuilder, n int) int {
	size := nodeHeaderSize + len(cols)*colDescSize
	for j := range cols {
		size += enc.PackedColumnBytes(n, cols[j].Width())
	}
	return size
}

// encodeLeaf writes the buffered columns — the arity coordinates, then the
// measures — as a v3 leaf into page payload b (zeroed by the pool's NewPage).
func encodeLeaf(b []byte, cols []enc.ColumnBuilder, arity int) {
	initNode(b, kindLeafV3, byte(arity))
	setNodeCount(b, cols[0].Len())
	off := nodeHeaderSize + len(cols)*colDescSize
	for j := range cols {
		c := &cols[j]
		d := nodeHeaderSize + j*colDescSize
		binary.LittleEndian.PutUint64(b[d:], uint64(c.Min()))
		binary.LittleEndian.PutUint64(b[d+8:], uint64(c.Max()))
		b[d+16] = byte(c.Width())
		c.Encode(b[off : off+c.EncodedBytes()])
		off += c.EncodedBytes()
	}
}

// scratchPool recycles scan scratch across searches: the decode buffers are
// tens of KB per search (a column per coordinate and measure × leaf rows),
// which would otherwise be the dominant allocation of a point query.
var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scanScratch holds one search's working buffers, reused for every node and
// leaf the search touches and recycled through scratchPool, so a search
// allocates nothing once the pool is warm.
type scanScratch struct {
	lay      leafLayout
	cols     [][]int64      // decoded coordinate columns, cols[j][i] = row i's coord j
	meas     [][]int64      // decoded measure columns, selected rows only
	zeros    []int64        // the all-zero column standing in for coordinates beyond a leaf's arity
	sel      []uint64       // selection bitmap over the leaf's rows
	entry    []int64        // 2·dim + measures: an inner entry's rectangle, or one point
	children []pager.PageID // stack of matching children of the inner nodes on the current path
	batch    LeafBatch      // what the visitor is handed; views of the buffers above
	stats    *SearchStats   // optional leaf read/skip counters; nil on Search
}

// begin readies the scratch for one search of t.
func (s *scanScratch) begin(t *Tree, st *SearchStats) {
	s.stats = st
	s.children = s.children[:0]
	if n := 2*t.dim + t.measures; len(s.entry) < n {
		s.entry, s.batch.point = make([]int64, n), make([]int64, n)
	}
	for len(s.meas) < t.measures {
		s.meas = append(s.meas, nil)
	}
	s.meas = s.meas[:t.measures]
}

// grow sizes the scratch for a leaf of n rows and arity coordinate columns.
func (s *scanScratch) grow(arity, n int) {
	for len(s.cols) < arity {
		s.cols = append(s.cols, nil)
	}
	growColumns(s.cols[:arity], n)
	growColumns(s.meas, n)
	s.sel = growSelection(s.sel, n)
}

// growSelection returns sel resized to a bitmap over n rows.
func growSelection(sel []uint64, n int) []uint64 {
	w := enc.SelectionWords(n)
	if cap(sel) < w {
		return make([]uint64, w)
	}
	return sel[:w]
}

func growColumns(cols [][]int64, n int) {
	for j := range cols {
		if cap(cols[j]) < n {
			cols[j] = make([]int64, n)
		}
		cols[j] = cols[j][:n]
	}
}

// skip counts the current leaf as pruned whole.
func (s *scanScratch) skip() {
	if s.stats != nil {
		s.stats.LeafPagesSkipped++
	}
}

// searchLeaf scans one leaf for points inside [lo, hi] and hands the
// matches to fn as one batch. The scan proceeds in four phases: zone-map
// leaf skipping, binary search of the sorted major columns down to a row
// range, column-at-a-time predicate evaluation of the remaining columns into
// the selection bitmap, and late materialization of only the surviving rows.
func (t *Tree) searchLeaf(b []byte, lo, hi []int64, s *scanScratch, fn VisitLeaf) error {
	if err := parseLeaf(b, t.dim, t.measures, t.payload(), &s.lay); err != nil {
		return err
	}
	lay := &s.lay
	if lay.n == 0 {
		s.skip()
		return nil
	}
	// Every point in this leaf has zero for coordinates beyond its arity:
	// one check covers all rows.
	for j := lay.arity; j < t.dim; j++ {
		if lo[j] > 0 || hi[j] < 0 {
			s.skip()
			return nil
		}
	}
	// Zone-map skip: a coordinate whose [min,max] misses the rectangle rules
	// out the whole leaf.
	for j := 0; j < lay.arity; j++ {
		if lay.desc[j].max < lo[j] || lay.desc[j].min > hi[j] {
			s.skip()
			return nil
		}
	}
	// Past the whole-page pruning checks: this leaf's packed columns will be
	// evaluated, so it counts as read even if every row is later rejected.
	if s.stats != nil {
		s.stats.LeafPagesRead++
	}
	// Narrowing phase: column settled−1 is sorted over [a, z) as long as
	// every later column is constant there, so binary search settles it; it
	// stays sorted for the next column only if the range it leaves holds one
	// value.
	a, z, settled := 0, lay.n, lay.arity
	for settled > 0 && a < z {
		j := settled - 1
		a = lay.lowerBound(b, j, a, z, lo[j], false)
		z = lay.lowerBound(b, j, a, z, hi[j], true)
		settled = j
		if a < z && lay.value(b, j, a) != lay.value(b, j, z-1) {
			break
		}
	}
	if a >= z {
		return nil
	}
	s.grow(lay.arity, lay.n)
	enc.SelectRange(s.sel, a, z)
	// Predicate phase: evaluate the unsettled constrained columns on packed
	// data. Columns whose zone lies entirely inside the rectangle cannot
	// reject a row and are deferred to materialization.
	for j := 0; j < settled; j++ {
		d := lay.desc[j]
		if d.min >= lo[j] && d.max <= hi[j] {
			continue
		}
		enc.FilterPackedRange(lay.col(b, j), lay.n, d.min, d.width, lo[j], hi[j], s.sel)
		if enc.SelectionEmpty(s.sel) {
			return nil
		}
	}
	// Materialization phase: decode every column only for the rows that
	// survived all predicates.
	for j := 0; j < lay.arity; j++ {
		lay.unpack(b, j, s.sel, s.cols[j])
	}
	for m, col := range s.meas {
		lay.unpack(b, lay.arity+m, s.sel, col)
	}
	s.batch.Coords = append(s.batch.Coords[:0], s.cols[:lay.arity]...)
	if lay.arity < t.dim {
		if cap(s.zeros) < lay.n {
			s.zeros = make([]int64, lay.n)
		}
		for j := lay.arity; j < t.dim; j++ {
			s.batch.Coords = append(s.batch.Coords, s.zeros[:lay.n])
		}
	}
	s.batch.Measures, s.batch.Sel = s.meas, s.sel
	return fn(&s.batch)
}

// leafDecoder holds one leaf's points fully decoded, column by column, for
// the iterator, Validate and ScrubLeaves: each column is unpacked once per
// page.
type leafDecoder struct {
	lay  leafLayout
	sel  []uint64
	cols [][]int64 // the arity coordinate columns, then the measure columns
}

// readLeaf decodes every column of leaf page b into d.
func (t *Tree) readLeaf(b []byte, d *leafDecoder) error {
	if err := parseLeaf(b, t.dim, t.measures, t.payload(), &d.lay); err != nil {
		return err
	}
	n := d.lay.n
	for len(d.cols) < d.lay.arity+t.measures {
		d.cols = append(d.cols, nil)
	}
	d.cols = d.cols[:d.lay.arity+t.measures]
	growColumns(d.cols, n)
	d.sel = growSelection(d.sel, n)
	enc.FillSelection(d.sel, n)
	for j := range d.cols {
		d.lay.unpack(b, j, d.sel, d.cols[j])
	}
	return nil
}

// count returns the number of points on the decoded leaf.
func (d *leafDecoder) count() int { return d.lay.n }

// point copies entry i into coords (len dim, zero padded) and measures.
func (d *leafDecoder) point(i int, coords, measures []int64) {
	for j := range coords {
		coords[j] = 0
		if j < d.lay.arity {
			coords[j] = d.cols[j][i]
		}
	}
	for m := range measures {
		measures[m] = d.cols[d.lay.arity+m][i]
	}
}

// LeafFormatInfo summarizes the leaf formats of a tree, as reported by
// ScrubLeaves.
type LeafFormatInfo struct {
	// V2Leaves and V3Leaves count leaf pages per format.
	V2Leaves uint64 `json:"v2_leaves"`
	V3Leaves uint64 `json:"v3_leaves"`
	// Points is the total number of points across all leaves.
	Points int64 `json:"points"`
}

// ScrubLeaves walks every leaf page, verifying the format-level invariants
// the structural Validate does not see: node kinds are known, directory and
// column regions stay inside the payload, bit widths are in bounds, and
// every zone map — the coordinates', and on v3 the measures' too — equals
// the decoded column's actual min/max. It returns per-format leaf counts so
// integrity tools can report what is on disk.
func (t *Tree) ScrubLeaves() (LeafFormatInfo, error) {
	var info LeafFormatInfo
	if t.leafHi < t.leafLo {
		return info, nil
	}
	var dec leafDecoder
	for pid := t.leafLo; pid <= t.leafHi; pid++ {
		fr, err := t.pool.Fetch(pid)
		if err != nil {
			return info, err
		}
		err = t.scrubLeaf(fr.Data(), &dec, &info)
		t.pool.Unpin(fr, false)
		if err != nil {
			return info, fmt.Errorf("rtree: leaf %d: %w", pid, err)
		}
	}
	return info, nil
}

func (t *Tree) scrubLeaf(b []byte, dec *leafDecoder, info *LeafFormatInfo) error {
	if err := t.readLeaf(b, dec); err != nil {
		return err
	}
	if dec.lay.rawMeas {
		info.V2Leaves++
	} else {
		info.V3Leaves++
	}
	n := dec.count()
	info.Points += int64(n)
	if n == 0 {
		return nil
	}
	for j, d := range dec.lay.desc {
		vals := dec.cols[j][:n]
		mn, mx := vals[0], vals[0]
		for _, v := range vals[1:] {
			mn, mx = min(mn, v), max(mx, v)
		}
		if mn != d.min || mx != d.max {
			return fmt.Errorf("column %d: zone map [%d,%d] disagrees with decoded [%d,%d]",
				j, d.min, d.max, mn, mx)
		}
	}
	return nil
}
