// Package rtree implements the packed and compressed R-trees underlying
// Cubetrees (Roussopoulos & Leifker 1985; Roussopoulos, Kotidis &
// Roussopoulos 1997).
//
// Unlike a dynamic R-tree, a packed R-tree is bulk-loaded from points sorted
// in "pack order" — by the last coordinate, then the next-to-last, and so on
// — filling every leaf to capacity with purely sequential writes. Views of
// arity k < dim are embedded by treating their missing coordinates as zero,
// and because packing keeps each view's points in a contiguous run of
// leaves, those zero coordinates are never stored: a leaf records the arity
// of its view and stores only the k useful coordinates per point. This
// compression plus full leaves is what makes the Cubetree organization
// smaller than even an unindexed relational representation of the same
// views.
//
// Each point carries a fixed number of int64 measures (by convention
// measure 0 is SUM and measure 1 is COUNT, from which AVG is derived),
// implementing the paper's footnote that the scheme extends to multiple
// aggregation functions per point.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

const (
	metaPage = 0
	magic    = 0x43554254 // "CUBT"

	kindInternal = 0
	kindLeaf     = 1 // v1 row-major leaves: recognized only to be refused

	nodeHeaderSize = 8 // kind u8, arity/level u8, count u16, pad u32

	// maxRuns bounds the number of view runs recorded on the meta page.
	maxRuns = 128
)

// RunInfo describes one view's contiguous run of leaves inside a tree.
type RunInfo struct {
	// Arity is the number of stored coordinates per point in the run.
	Arity int
	// FirstLeaf and LastLeaf delimit the run's leaf pages (inclusive).
	// FirstLeaf > LastLeaf means the run is empty.
	FirstLeaf pager.PageID
	LastLeaf  pager.PageID
	// Points is the number of points in the run.
	Points int64
}

// Tree is a packed R-tree. It is immutable once built; updates produce a new
// tree via merge-packing (see Merge).
type Tree struct {
	pool     *pager.Pool
	dim      int
	measures int
	root     pager.PageID
	height   int // 1 = root is a leaf
	count    int64
	leafLo   pager.PageID // first leaf page (they are contiguous)
	leafHi   pager.PageID // last leaf page
	runs     []RunInfo
	fanout   int // test override, 0 = page capacity
}

// Dim returns the dimensionality of the tree's point space.
func (t *Tree) Dim() int { return t.dim }

// Measures returns the number of measures stored per point.
func (t *Tree) Measures() int { return t.measures }

// Count returns the total number of points.
func (t *Tree) Count() int64 { return t.count }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Runs returns the view runs recorded at build time, in leaf order.
func (t *Tree) Runs() []RunInfo { return append([]RunInfo(nil), t.runs...) }

// Pages returns the total number of pages in the tree's file.
func (t *Tree) Pages() uint32 { return t.pool.File().NumPages() }

// LeafPages returns the number of leaf pages.
func (t *Tree) LeafPages() uint32 {
	if t.leafHi < t.leafLo {
		return 0
	}
	return uint32(t.leafHi - t.leafLo + 1)
}

// Bytes returns the on-disk size of the tree.
func (t *Tree) Bytes() int64 { return t.pool.File().Size() }

// Pool exposes the tree's buffer pool (used by the forest for flushing).
func (t *Tree) Pool() *pager.Pool { return t.pool }

// Close persists metadata and flushes the pool.
func (t *Tree) Close() error {
	if err := t.syncMeta(); err != nil {
		return err
	}
	return t.pool.Flush()
}

// Open loads a packed tree previously built on pool's file.
func Open(pool *pager.Pool) (*Tree, error) {
	fr, err := pool.Fetch(metaPage)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(fr, false)
	b := fr.Data()
	if binary.LittleEndian.Uint32(b[0:]) != magic {
		return nil, fmt.Errorf("rtree: bad magic")
	}
	t := &Tree{
		pool:     pool,
		dim:      int(binary.LittleEndian.Uint32(b[4:])),
		measures: int(binary.LittleEndian.Uint32(b[8:])),
		root:     pager.PageID(binary.LittleEndian.Uint32(b[12:])),
		height:   int(binary.LittleEndian.Uint32(b[16:])),
		count:    int64(binary.LittleEndian.Uint64(b[20:])),
		leafLo:   pager.PageID(binary.LittleEndian.Uint32(b[28:])),
		leafHi:   pager.PageID(binary.LittleEndian.Uint32(b[32:])),
		fanout:   int(binary.LittleEndian.Uint32(b[36:])),
	}
	n := int(binary.LittleEndian.Uint32(b[40:]))
	off := 44
	for i := 0; i < n; i++ {
		t.runs = append(t.runs, RunInfo{
			Arity:     int(b[off]),
			FirstLeaf: pager.PageID(binary.LittleEndian.Uint32(b[off+1:])),
			LastLeaf:  pager.PageID(binary.LittleEndian.Uint32(b[off+5:])),
			Points:    int64(binary.LittleEndian.Uint64(b[off+9:])),
		})
		off += 17
	}
	return t, nil
}

func (t *Tree) syncMeta() error {
	fr, err := t.pool.Fetch(metaPage)
	if err != nil {
		return err
	}
	b := fr.Data()
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint32(b[4:], uint32(t.dim))
	binary.LittleEndian.PutUint32(b[8:], uint32(t.measures))
	binary.LittleEndian.PutUint32(b[12:], uint32(t.root))
	binary.LittleEndian.PutUint32(b[16:], uint32(t.height))
	binary.LittleEndian.PutUint64(b[20:], uint64(t.count))
	binary.LittleEndian.PutUint32(b[28:], uint32(t.leafLo))
	binary.LittleEndian.PutUint32(b[32:], uint32(t.leafHi))
	binary.LittleEndian.PutUint32(b[36:], uint32(t.fanout))
	if len(t.runs) > maxRuns {
		t.pool.Unpin(fr, false)
		return fmt.Errorf("rtree: too many runs (%d)", len(t.runs))
	}
	binary.LittleEndian.PutUint32(b[40:], uint32(len(t.runs)))
	off := 44
	for _, r := range t.runs {
		b[off] = byte(r.Arity)
		binary.LittleEndian.PutUint32(b[off+1:], uint32(r.FirstLeaf))
		binary.LittleEndian.PutUint32(b[off+5:], uint32(r.LastLeaf))
		binary.LittleEndian.PutUint64(b[off+9:], uint64(r.Points))
		off += 17
	}
	t.pool.Unpin(fr, true)
	return nil
}

// --- node layout ------------------------------------------------------------

func initNode(b []byte, kind, aux byte) {
	for i := 0; i < nodeHeaderSize; i++ {
		b[i] = 0
	}
	b[0] = kind
	b[1] = aux
}

func nodeKind(b []byte) byte       { return b[0] }
func nodeAux(b []byte) byte        { return b[1] } // arity for leaves, level for internal
func nodeCount(b []byte) int       { return int(binary.LittleEndian.Uint16(b[2:])) }
func setNodeCount(b []byte, n int) { binary.LittleEndian.PutUint16(b[2:], uint16(n)) }

// payload is the usable bytes per page: the checksum trailer (absent on
// legacy files) is reserved by the pager. Reads never depend on capacity —
// nodes carry their own entry counts — so both formats stay readable.
func (t *Tree) payload() int { return t.pool.File().PayloadSize() }

// innerEntrySize is the bytes per child entry of an internal node: an MBR of
// dim (lo,hi) pairs plus a child page id.
func (t *Tree) innerEntrySize() int { return t.dim*16 + 4 }

// innerCap returns the child capacity of an internal node.
func (t *Tree) innerCap() int {
	c := (t.payload() - nodeHeaderSize) / t.innerEntrySize()
	if t.fanout > 1 && c > t.fanout {
		c = t.fanout
	}
	return c
}

// innerEntry decodes entry i of internal node b.
func (t *Tree) innerEntry(b []byte, i int, lo, hi []int64) pager.PageID {
	es := t.innerEntrySize()
	off := nodeHeaderSize + i*es
	for j := 0; j < t.dim; j++ {
		lo[j] = enc.Field(b[off:], 2*j)
		hi[j] = enc.Field(b[off:], 2*j+1)
	}
	return pager.PageID(binary.LittleEndian.Uint32(b[off+t.dim*16:]))
}

func (t *Tree) setInnerEntry(b []byte, i int, lo, hi []int64, child pager.PageID) {
	es := t.innerEntrySize()
	off := nodeHeaderSize + i*es
	for j := 0; j < t.dim; j++ {
		enc.PutField(b[off:], 2*j, lo[j])
		enc.PutField(b[off:], 2*j+1, hi[j])
	}
	binary.LittleEndian.PutUint32(b[off+t.dim*16:], uint32(child))
}

// --- search -----------------------------------------------------------------

// Visit is called for every point matched by a search. coords has the
// tree's full dimensionality with zero padding; measures holds the point's
// aggregate payload. Both slices are reused between calls.
type Visit func(coords []int64, measures []int64) error

// LeafBatch is one leaf's matching points in columnar form: bit i of Sel is
// set when row i matched, Coords[j][i] is its coordinate j (the tree's full
// dimensionality; columns beyond the leaf's arity are all zero) and
// Measures[m][i] its measure m. Only selected rows of the columns are
// meaningful, and everything is reused for the search's next leaf.
type LeafBatch struct {
	Coords   [][]int64
	Measures [][]int64
	Sel      []uint64
	point    []int64 // at least dim + measures words, for unrolling the batch point by point
}

// VisitLeaf is called once for every leaf that holds at least one matching
// point, in leaf order.
type VisitLeaf func(b *LeafBatch) error

// SearchStats counts one search's leaf-page traffic for EXPLAIN-ANALYZE
// style profiles. A leaf is "read" when its rows (or packed columns) were
// actually evaluated against the rectangle, and "skipped" when the page was
// ruled out by its zone extent without decoding any point: pruned at its
// parent by the entry rectangle (the leaf's zone boundaries hoisted into the
// index), or pruned after a fetch by a leaf's zone map, the arity check, or an
// empty page. Read + skipped therefore totals the leaf pages the search
// considered, and skipped is the pages the zone maps saved. Counters
// accumulate across calls so one stats value can cover a multi-tree plan.
type SearchStats struct {
	LeafPagesRead    int64
	LeafPagesSkipped int64
}

// Add accumulates other into s (nil-safe on both sides).
func (s *SearchStats) Add(other *SearchStats) {
	if s == nil || other == nil {
		return
	}
	s.LeafPagesRead += other.LeafPagesRead
	s.LeafPagesSkipped += other.LeafPagesSkipped
}

// Search visits every point p with lo[j] <= p[j] <= hi[j] for all j.
func (t *Tree) Search(lo, hi []int64, fn Visit) error {
	return t.SearchWithStats(lo, hi, fn, nil)
}

// SearchWithStats is Search, additionally accumulating leaf read/skip counts
// into st when st is non-nil. It is SearchLeaves with each batch unrolled
// into per-point calls.
func (t *Tree) SearchWithStats(lo, hi []int64, fn Visit, st *SearchStats) error {
	return t.SearchLeaves(lo, hi, func(b *LeafBatch) error {
		coords, measures := b.point[:t.dim], b.point[t.dim:t.dim+t.measures]
		for wi, w := range b.Sel {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				for j, c := range b.Coords {
					coords[j] = c[i]
				}
				for m, c := range b.Measures {
					measures[m] = c[i]
				}
				if err := fn(coords, measures); err != nil {
					return err
				}
			}
		}
		return nil
	}, st)
}

// SearchLeaves hands fn the points inside [lo, hi] one leaf at a time, as
// decoded columns plus a selection bitmap, accumulating leaf read/skip
// counts into st when st is non-nil. A nil st costs one pointer test per
// leaf page.
func (t *Tree) SearchLeaves(lo, hi []int64, fn VisitLeaf, st *SearchStats) error {
	if len(lo) != t.dim || len(hi) != t.dim {
		return fmt.Errorf("rtree: search rectangle dim %d/%d, want %d", len(lo), len(hi), t.dim)
	}
	if t.count == 0 {
		return nil
	}
	scratch := scratchPool.Get().(*scanScratch)
	scratch.begin(t, st)
	err := t.search(t.root, t.height, lo, hi, scratch, fn)
	scratch.stats = nil // never leak the caller's pointer through the pool
	scratchPool.Put(scratch)
	return err
}

func (t *Tree) search(pid pager.PageID, level int, lo, hi []int64, scratch *scanScratch, fn VisitLeaf) error {
	fr, err := t.pool.Fetch(pid)
	if err != nil {
		return err
	}
	b := fr.Data()
	n := nodeCount(b)
	if level == 1 {
		err = t.searchLeaf(b, lo, hi, scratch, fn)
		t.pool.Unpin(fr, false)
		return err
	}
	if nodeKind(b) != kindInternal {
		t.pool.Unpin(fr, false)
		return fmt.Errorf("rtree: corrupt node %d: expected internal", pid)
	}
	// Collect matching children before recursing so the parent page is not
	// pinned during the whole subtree walk. They go on a stack shared by the
	// whole search; this node's are [base, end).
	elo, ehi := scratch.entry[:t.dim], scratch.entry[t.dim:2*t.dim]
	base := len(scratch.children)
	for i := 0; i < n; i++ {
		child := t.innerEntry(b, i, elo, ehi)
		if rectsIntersect(elo, ehi, lo, hi) {
			scratch.children = append(scratch.children, child)
		} else if level == 2 && scratch.stats != nil {
			// The rejected child is a leaf page: its entry rectangle is the
			// leaf's zone extent, so this is a leaf page skipped whole
			// without even being fetched.
			scratch.stats.LeafPagesSkipped++
		}
	}
	t.pool.Unpin(fr, false)
	end := len(scratch.children)
	for i := base; i < end && err == nil; i++ {
		err = t.search(scratch.children[i], level-1, lo, hi, scratch, fn)
	}
	scratch.children = scratch.children[:base]
	return err
}

func pointInRect(p, lo, hi []int64) bool {
	for j := range p {
		if p[j] < lo[j] || p[j] > hi[j] {
			return false
		}
	}
	return true
}

func rectsIntersect(alo, ahi, blo, bhi []int64) bool {
	for j := range alo {
		if ahi[j] < blo[j] || bhi[j] < alo[j] {
			return false
		}
	}
	return true
}

// Validate checks packing invariants: every leaf in [leafLo, leafHi], leaves
// sorted in pack order within each run, full MBR containment, and the meta
// point count. Tests call it after every build and merge.
func (t *Tree) Validate() error {
	if t.count == 0 {
		return nil
	}
	// MBR containment and level structure.
	var walk func(pid pager.PageID, level int, lo, hi []int64) error
	walk = func(pid pager.PageID, level int, lo, hi []int64) error {
		fr, err := t.pool.Fetch(pid)
		if err != nil {
			return err
		}
		defer t.pool.Unpin(fr, false)
		b := fr.Data()
		n := nodeCount(b)
		if level == 1 {
			if pid < t.leafLo || pid > t.leafHi {
				return fmt.Errorf("rtree: leaf %d outside leaf range [%d,%d]", pid, t.leafLo, t.leafHi)
			}
			var dec leafDecoder
			if err := t.readLeaf(b, &dec); err != nil {
				return fmt.Errorf("rtree: leaf %d: %w", pid, err)
			}
			coords := make([]int64, t.dim)
			meas := make([]int64, t.measures)
			for i := 0; i < dec.count(); i++ {
				dec.point(i, coords, meas)
				if lo != nil && !pointInRect(coords, lo, hi) {
					return fmt.Errorf("rtree: leaf %d point %v escapes parent MBR", pid, coords)
				}
			}
			return nil
		}
		if nodeKind(b) != kindInternal {
			return fmt.Errorf("rtree: node %d at level %d is a leaf", pid, level)
		}
		elo := make([]int64, t.dim)
		ehi := make([]int64, t.dim)
		for i := 0; i < n; i++ {
			child := t.innerEntry(b, i, elo, ehi)
			if lo != nil && !rectContains(lo, hi, elo, ehi) {
				return fmt.Errorf("rtree: node %d entry %d MBR escapes parent", pid, i)
			}
			if err := walk(child, level-1, append([]int64(nil), elo...), append([]int64(nil), ehi...)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height, nil, nil); err != nil {
		return err
	}
	// Run ordering and count.
	var total int64
	for _, run := range t.runs {
		prev := make([]int64, t.dim)
		first := true
		it := t.RunIterator(run)
		for {
			coords, _, err := it.Next()
			if err != nil {
				if err == ErrDone {
					break
				}
				return err
			}
			if !first && !packLess(prev, coords) {
				return fmt.Errorf("rtree: run (arity %d) out of pack order: %v !< %v", run.Arity, prev, coords)
			}
			copy(prev, coords)
			first = false
			total++
		}
		it.Close()
	}
	if total != t.count {
		return fmt.Errorf("rtree: count mismatch: meta %d, runs %d", t.count, total)
	}
	return nil
}

func rectContains(plo, phi, clo, chi []int64) bool {
	for j := range plo {
		if clo[j] < plo[j] || chi[j] > phi[j] {
			return false
		}
	}
	return true
}

// packLess reports whether a precedes b in pack order (last coordinate
// major, as the paper sorts R{x,y} points by y then x).
func packLess(a, b []int64) bool {
	for j := len(a) - 1; j >= 0; j-- {
		if a[j] != b[j] {
			return a[j] < b[j]
		}
	}
	return false
}

// PackLess exposes the pack order for callers preparing sorted input.
func PackLess(a, b []int64) bool { return packLess(a, b) }
