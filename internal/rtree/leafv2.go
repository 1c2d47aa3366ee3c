package rtree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// Leaf format v2, the one layout Builder writes: column-major compressed
// leaf pages (byte-level tables in docs/FORMAT.md).
//
// A row-major leaf of fixed-width tuples (v1, leafv1.go) makes a slice scan
// decode every 8-byte field of every point even when one coordinate column
// decides the predicate. A v2 leaf holds the same points column-major:
//
//	node header (8 bytes)   kind=kindLeafV2, aux=arity, count u16
//	column directory        arity × 17 bytes: min i64, max i64, bit width u8
//	coordinate columns      arity × ceil(count·width/8) bytes, packed
//	                        frame-of-reference deltas (enc.PackColumn)
//	measure columns         measures × count × 8 bytes, raw little-endian
//
// The directory doubles as a per-leaf zone map: a scan whose rectangle
// misses [min,max] on any coordinate skips the whole leaf without touching a
// column, and a column whose zone lies entirely inside the rectangle is
// never evaluated as a predicate. Measures stay raw because they are summed,
// not filtered, and decoding them is deferred until a row survives every
// coordinate predicate (late materialization).
//
// Versioning: leaves self-describe through the node kind byte, so files of
// v1 leaves remain fully readable; the internal-node format and the meta
// page are the same for both.

const (
	kindLeafV2 = 2

	// colDescSize is the bytes per column directory entry: min, max, width.
	colDescSize = 8 + 8 + 1
)

// PackFormat names the one leaf layout Builder writes; it labels the
// build_info gauge and has no other reader.
const PackFormat = "v2"

// colDesc is one decoded column directory entry.
type colDesc struct {
	min, max int64
	width    uint
}

// v2Layout resolves the region offsets of a v2 leaf from its header and
// directory. All offsets are relative to the start of the page payload.
type v2Layout struct {
	arity   int
	n       int
	desc    []colDesc // len arity; reused across leaves by callers
	colOff  []int     // byte offset of each packed coordinate column
	measOff int       // byte offset of the raw measure region
	end     int       // one past the last used byte
}

// parseV2Leaf decodes the directory of leaf page b into lay, validating that
// every region stays inside the payload. measures is the tree's measure
// count; payload the usable page bytes.
func parseV2Leaf(b []byte, measures, payload int, lay *v2Layout) error {
	arity := int(nodeAux(b))
	n := nodeCount(b)
	lay.arity = arity
	lay.n = n
	if cap(lay.desc) < arity {
		lay.desc = make([]colDesc, arity)
		lay.colOff = make([]int, arity)
	}
	lay.desc = lay.desc[:arity]
	lay.colOff = lay.colOff[:arity]
	off := nodeHeaderSize + arity*colDescSize
	if off > payload || off > len(b) {
		return fmt.Errorf("rtree: v2 leaf directory (arity %d) exceeds page payload", arity)
	}
	for j := 0; j < arity; j++ {
		d := nodeHeaderSize + j*colDescSize
		lay.desc[j].min = int64(binary.LittleEndian.Uint64(b[d:]))
		lay.desc[j].max = int64(binary.LittleEndian.Uint64(b[d+8:]))
		lay.desc[j].width = uint(b[d+16])
		if lay.desc[j].width > 64 {
			return fmt.Errorf("rtree: v2 leaf column %d bit width %d out of range", j, lay.desc[j].width)
		}
		lay.colOff[j] = off
		off += enc.PackedColumnBytes(n, lay.desc[j].width)
	}
	lay.measOff = off
	lay.end = off + n*measures*enc.FieldSize
	if lay.end > payload || lay.end > len(b) {
		return fmt.Errorf("rtree: v2 leaf regions (%d bytes) exceed page payload (%d)", lay.end, payload)
	}
	return nil
}

// col returns the packed bytes of coordinate column j.
func (lay *v2Layout) col(b []byte, j int) []byte {
	return b[lay.colOff[j] : lay.colOff[j]+enc.PackedColumnBytes(lay.n, lay.desc[j].width)]
}

// measure returns the raw value of measure column m at row i.
func (lay *v2Layout) measure(b []byte, m, i int) int64 {
	return int64(binary.LittleEndian.Uint64(b[lay.measOff+(m*lay.n+i)*enc.FieldSize:]))
}

// v2EncodedSize returns the page bytes a v2 leaf of n points needs given the
// coordinate column builders' current widths.
func v2EncodedSize(cols []enc.ColumnBuilder, n, measures int) int {
	size := nodeHeaderSize + len(cols)*colDescSize + n*measures*enc.FieldSize
	for j := range cols {
		size += enc.PackedColumnBytes(n, cols[j].Width())
	}
	return size
}

// encodeV2Leaf writes the buffered columns into page payload b (zeroed by
// the pool's NewPage). meas is row-major scratch: meas[i] holds row i's
// measures.
func encodeV2Leaf(b []byte, cols []enc.ColumnBuilder, meas [][]int64, measures int) {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	} else {
		n = len(meas)
	}
	initNode(b, kindLeafV2, byte(len(cols)))
	setNodeCount(b, n)
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
	for m := 0; m < measures; m++ {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[off:], uint64(meas[i][m]))
			off += enc.FieldSize
		}
	}
}

// scratchPool recycles scan scratch across searches: the decode buffers are
// ~10 KB per search (arity columns × leaf rows), which would otherwise be the
// dominant allocation of a point query.
var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scanScratch holds one search's working buffers, reused for every node and
// leaf the search touches and recycled through scratchPool, so a search
// allocates nothing once the pool is warm.
type scanScratch struct {
	lay      v2Layout
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
	if w := enc.SelectionWords(n); cap(s.sel) < w {
		s.sel = make([]uint64, w)
	} else {
		s.sel = s.sel[:w]
	}
}

func growColumns(cols [][]int64, n int) {
	for j := range cols {
		if cap(cols[j]) < n {
			cols[j] = make([]int64, n)
		}
		cols[j] = cols[j][:n]
	}
}

// searchLeafV2 scans one v2 leaf for points inside [lo, hi] and hands the
// matches to fn as one batch. The scan proceeds in three phases: zone-map
// leaf skipping, column-at-a-time predicate evaluation into the selection
// bitmap, and late materialization of only the surviving rows.
func (t *Tree) searchLeafV2(b []byte, lo, hi []int64, s *scanScratch, fn VisitLeaf) error {
	if err := parseV2Leaf(b, t.measures, t.payload(), &s.lay); err != nil {
		return err
	}
	lay := &s.lay
	if lay.n == 0 {
		if s.stats != nil {
			s.stats.LeafPagesSkipped++
		}
		return nil
	}
	// Every point in this leaf has zero for coordinates beyond its arity:
	// one check covers all rows.
	for j := lay.arity; j < t.dim; j++ {
		if lo[j] > 0 || hi[j] < 0 {
			if s.stats != nil {
				s.stats.LeafPagesSkipped++
			}
			return nil
		}
	}
	// Zone-map skip: a coordinate whose [min,max] misses the rectangle rules
	// out the whole leaf.
	for j := 0; j < lay.arity; j++ {
		if lay.desc[j].max < lo[j] || lay.desc[j].min > hi[j] {
			if s.stats != nil {
				s.stats.LeafPagesSkipped++
			}
			return nil
		}
	}
	// Past the whole-page pruning checks: this leaf's packed columns will be
	// evaluated, so it counts as read even if every row is later rejected.
	if s.stats != nil {
		s.stats.LeafPagesRead++
	}
	s.grow(lay.arity, lay.n)
	enc.FillSelection(s.sel, lay.n)
	// Predicate phase: evaluate constrained columns on packed data. Columns
	// whose zone lies entirely inside the rectangle cannot reject a row and
	// are deferred to materialization.
	for j := 0; j < lay.arity; j++ {
		d := lay.desc[j]
		if d.min >= lo[j] && d.max <= hi[j] {
			continue // zone inside the rectangle: cannot reject any row
		}
		enc.FilterPackedRange(lay.col(b, j), lay.n, d.min, d.width, lo[j], hi[j], s.sel)
		if enc.SelectionEmpty(s.sel) {
			return nil
		}
	}
	// Materialization phase: decode every column only for the rows that
	// survived all predicates.
	for j := 0; j < lay.arity; j++ {
		d := lay.desc[j]
		enc.UnpackColumnSelect(lay.col(b, j), lay.n, d.min, d.width, s.sel, s.cols[j])
	}
	for m, col := range s.meas {
		for wi, w := range s.sel {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				col[i] = lay.measure(b, m, i)
			}
		}
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

// leafDecoder provides format-agnostic random access to a leaf's points for
// the iterator and Validate. For v2 leaves the coordinate columns are
// decoded once per page.
type leafDecoder struct {
	t     *Tree
	b     []byte
	v1    bool // a read-only row-major leaf: point goes through leafPoint
	arity int
	n     int
	lay   v2Layout
	cols  [][]int64
}

// readLeaf points the decoder at leaf page b, decoding v2 columns.
func (t *Tree) readLeaf(b []byte, d *leafDecoder) error {
	d.t = t
	d.b = b
	d.v1 = false
	d.arity = int(nodeAux(b))
	d.n = nodeCount(b)
	switch nodeKind(b) {
	case kindLeaf:
		d.v1 = true
		return nil
	case kindLeafV2:
		if err := parseV2Leaf(b, t.measures, t.payload(), &d.lay); err != nil {
			return err
		}
		for len(d.cols) < d.arity {
			d.cols = append(d.cols, nil)
		}
		for j := 0; j < d.arity; j++ {
			if cap(d.cols[j]) < d.n {
				d.cols[j] = make([]int64, d.n)
			}
			d.cols[j] = d.cols[j][:d.n]
			enc.UnpackColumn(d.lay.col(b, j), d.n, d.lay.desc[j].min, d.lay.desc[j].width, d.cols[j])
		}
		return nil
	default:
		return fmt.Errorf("rtree: unknown leaf format (node kind %d)", nodeKind(b))
	}
}

// count returns the number of points on the decoded leaf.
func (d *leafDecoder) count() int { return d.n }

// point decodes entry i into coords (len dim, zero padded) and measures.
func (d *leafDecoder) point(i int, coords, measures []int64) {
	if d.v1 {
		d.t.leafPoint(d.b, i, coords, measures)
		return
	}
	for j := 0; j < d.arity; j++ {
		coords[j] = d.cols[j][i]
	}
	for j := d.arity; j < d.t.dim; j++ {
		coords[j] = 0
	}
	for m := 0; m < d.t.measures; m++ {
		measures[m] = d.lay.measure(d.b, m, i)
	}
}

// LeafFormatInfo summarizes the leaf formats of a tree, as reported by
// ScrubLeaves.
type LeafFormatInfo struct {
	// V1Leaves and V2Leaves count leaf pages per format.
	V1Leaves uint64 `json:"v1_leaves"`
	V2Leaves uint64 `json:"v2_leaves"`
	// Points is the total number of points across all leaves.
	Points int64 `json:"points"`
}

// ScrubLeaves walks every leaf page, verifying the format-level invariants
// the structural Validate does not see: node kinds are known, v2 directory
// and column regions stay inside the payload, bit widths are in bounds, and
// every v2 zone map equals the decoded column's actual min/max. It returns
// per-format leaf counts so integrity tools can report what is on disk.
func (t *Tree) ScrubLeaves() (LeafFormatInfo, error) {
	var info LeafFormatInfo
	if t.leafHi < t.leafLo {
		return info, nil
	}
	var lay v2Layout
	var vals []int64
	for pid := t.leafLo; pid <= t.leafHi; pid++ {
		fr, err := t.pool.Fetch(pid)
		if err != nil {
			return info, err
		}
		b := fr.Data()
		switch nodeKind(b) {
		case kindLeaf:
			info.V1Leaves++
			n, err := t.scrubLeafV1(b)
			if err != nil {
				t.pool.Unpin(fr, false)
				return info, fmt.Errorf("rtree: leaf %d: %w", pid, err)
			}
			info.Points += int64(n)
		case kindLeafV2:
			info.V2Leaves++
			if err := parseV2Leaf(b, t.measures, t.payload(), &lay); err != nil {
				t.pool.Unpin(fr, false)
				return info, fmt.Errorf("rtree: leaf %d: %w", pid, err)
			}
			info.Points += int64(lay.n)
			if cap(vals) < lay.n {
				vals = make([]int64, lay.n)
			}
			vals = vals[:lay.n]
			for j := 0; j < lay.arity; j++ {
				d := lay.desc[j]
				enc.UnpackColumn(lay.col(b, j), lay.n, d.min, d.width, vals)
				if lay.n == 0 {
					continue
				}
				mn, mx := vals[0], vals[0]
				for _, v := range vals[1:] {
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
				if mn != d.min || mx != d.max {
					t.pool.Unpin(fr, false)
					return info, fmt.Errorf(
						"rtree: leaf %d column %d: zone map [%d,%d] disagrees with decoded [%d,%d]",
						pid, j, d.min, d.max, mn, mx)
				}
			}
		default:
			t.pool.Unpin(fr, false)
			return info, fmt.Errorf("rtree: leaf %d: unknown leaf format (node kind %d)", pid, nodeKind(b))
		}
		t.pool.Unpin(fr, false)
	}
	return info, nil
}
