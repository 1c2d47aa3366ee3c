package rtree

import (
	"fmt"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// Options configures tree construction.
type Options struct {
	// Measures is the number of int64 measures per point (default 2:
	// SUM and COUNT).
	Measures int
	// Fanout, if non-zero, caps node capacity. Tests use 3 to reproduce the
	// paper's Figure 8.
	Fanout int
}

// Builder bulk-loads a packed R-tree. Points are supplied one sorted run per
// view: call BeginRun, Add every point of the view in pack order, then
// EndRun; repeat for further views; Finish builds the internal levels.
//
// Leaf pages are allocated strictly sequentially starting right after the
// meta page, so the entire leaf level is written with sequential I/O — the
// property behind the paper's 6 GB/hour packing rate. A new leaf is started
// at every run boundary so that each leaf belongs to exactly one view,
// enabling zero-coordinate compression.
type Builder struct {
	pool *pager.Pool
	t    *Tree

	inRun    bool
	arity    int
	leafCap  int
	curN     int
	runFirst pager.PageID
	runLast  pager.PageID
	runPts   int64
	prev     []int64
	havePrev bool

	// Leaves are buffered column-wise — the arity coordinates, then the
	// measures — and written only when sealed, because the packed column
	// widths are not known until then.
	cols []enc.ColumnBuilder

	leaves []childEntry // MBR + page of every finished leaf, in order
}

// childEntry records a built node for assembling its parent level.
type childEntry struct {
	lo, hi []int64
	page   pager.PageID
}

// NewBuilder starts building a packed tree of the given dimensionality on
// pool, whose file must be empty.
func NewBuilder(pool *pager.Pool, dim int, opts Options) (*Builder, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rtree: dimension must be >= 1")
	}
	measures := opts.Measures
	if measures <= 0 {
		measures = 2
	}
	meta, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	if meta.ID() != metaPage {
		pool.Unpin(meta, false)
		return nil, fmt.Errorf("rtree: NewBuilder on non-empty file")
	}
	pool.Unpin(meta, true)
	t := &Tree{
		pool:     pool,
		dim:      dim,
		measures: measures,
		leafLo:   1,
		leafHi:   0, // empty until first leaf
		fanout:   opts.Fanout,
	}
	return &Builder{pool: pool, t: t}, nil
}

// BeginRun starts a new view run whose points carry arity coordinates
// (1 <= arity <= dim). Arity 0 is allowed for the scalar "none" view, whose
// single point sits at the origin.
func (b *Builder) BeginRun(arity int) error {
	if b.inRun {
		return fmt.Errorf("rtree: BeginRun while a run is open")
	}
	if arity < 0 || arity > b.t.dim {
		return fmt.Errorf("rtree: run arity %d out of range [0,%d]", arity, b.t.dim)
	}
	b.inRun = true
	b.arity = arity
	// Leaves are sealed by encoded size, not a fixed entry count; the cap
	// only reflects the count field's range and any test fanout.
	b.leafCap = 1<<16 - 1
	if b.t.fanout > 1 {
		b.leafCap = b.t.fanout
	}
	for len(b.cols) < arity+b.t.measures {
		b.cols = append(b.cols, enc.ColumnBuilder{})
	}
	b.cols = b.cols[:arity+b.t.measures]
	for j := range b.cols {
		b.cols[j].Reset()
	}
	b.curN = 0
	b.runFirst = pager.InvalidPage
	b.runLast = pager.InvalidPage
	b.runPts = 0
	if cap(b.prev) < arity {
		b.prev = make([]int64, arity)
	}
	b.prev = b.prev[:arity]
	b.havePrev = false
	return nil
}

// Add appends one point of the current run. coords must have exactly the
// run's arity and be strictly increasing in pack order; measures must match
// the builder's measure count.
func (b *Builder) Add(coords []int64, measures []int64) error {
	if !b.inRun {
		return fmt.Errorf("rtree: Add outside a run")
	}
	if len(coords) != b.arity {
		return fmt.Errorf("rtree: point arity %d, want %d", len(coords), b.arity)
	}
	if len(measures) != b.t.measures {
		return fmt.Errorf("rtree: point with %d measures, want %d", len(measures), b.t.measures)
	}
	// Coordinates beyond the run's arity are zero on every point of the
	// run, so comparing the stored ones decides pack order.
	if b.havePrev && !packLess(b.prev, coords) {
		return fmt.Errorf("rtree: points out of pack order: %v then %v", b.prev, coords)
	}
	copy(b.prev, coords)
	b.havePrev = true

	if err := b.add(coords, measures); err != nil {
		return err
	}
	b.runPts++
	b.t.count++
	return nil
}

// add buffers one point into the column builders, sealing the current leaf
// when it would overflow the page: the just-added point is popped, the
// remaining points are flushed, and the point reopens a fresh leaf.
func (b *Builder) add(coords, measures []int64) error {
	b.push(coords, measures)
	if b.curN > b.leafCap || leafEncodedSize(b.cols, b.curN) > b.t.payload() {
		for j := range b.cols {
			b.cols[j].PopLast()
		}
		b.curN--
		if b.curN == 0 {
			return fmt.Errorf("rtree: point exceeds leaf payload")
		}
		if err := b.flushLeaf(); err != nil {
			return err
		}
		b.push(coords, measures)
		if leafEncodedSize(b.cols, b.curN) > b.t.payload() {
			return fmt.Errorf("rtree: point exceeds leaf payload")
		}
	}
	return nil
}

// push appends one point to the leaf's column builders.
func (b *Builder) push(coords, measures []int64) {
	for j, v := range coords {
		b.cols[j].Append(v)
	}
	for m, v := range measures {
		b.cols[b.arity+m].Append(v)
	}
	b.curN++
}

// flushLeaf writes the buffered points as one leaf page. The leaf MBR comes
// straight from the coordinate columns' zone maps; coordinates beyond the
// run's arity are zero.
func (b *Builder) flushLeaf() error {
	if b.curN == 0 {
		return nil
	}
	fr, err := b.pool.NewPage()
	if err != nil {
		return err
	}
	encodeLeaf(fr.Data(), b.cols, b.arity)
	lo := make([]int64, b.t.dim)
	hi := make([]int64, b.t.dim)
	for j := 0; j < b.arity; j++ {
		lo[j] = b.cols[j].Min()
		hi[j] = b.cols[j].Max()
	}
	b.leaves = append(b.leaves, childEntry{lo: lo, hi: hi, page: fr.ID()})
	b.t.leafHi = fr.ID()
	if b.runFirst == pager.InvalidPage {
		b.runFirst = fr.ID()
	}
	b.runLast = fr.ID()
	b.pool.Unpin(fr, true)
	for j := range b.cols {
		b.cols[j].Reset()
	}
	b.curN = 0
	return nil
}

// EndRun closes the current run and returns its placement.
func (b *Builder) EndRun() (RunInfo, error) {
	if !b.inRun {
		return RunInfo{}, fmt.Errorf("rtree: EndRun without BeginRun")
	}
	if err := b.flushLeaf(); err != nil {
		return RunInfo{}, err
	}
	b.inRun = false
	run := RunInfo{Arity: b.arity, FirstLeaf: b.runFirst, LastLeaf: b.runLast, Points: b.runPts}
	if b.runPts == 0 {
		run.FirstLeaf, run.LastLeaf = 1, 0 // canonical empty range
	}
	b.t.runs = append(b.t.runs, run)
	return run, nil
}

// Finish builds the internal levels bottom-up and returns the completed
// tree. The builder must not be reused.
func (b *Builder) Finish() (*Tree, error) {
	if b.inRun {
		return nil, fmt.Errorf("rtree: Finish with an open run")
	}
	t := b.t
	if len(b.leaves) == 0 {
		// Empty tree: keep a single empty leaf so searches have a root.
		fr, err := b.pool.NewPage()
		if err != nil {
			return nil, err
		}
		initNode(fr.Data(), kindLeafV3, 0)
		t.root = fr.ID()
		t.height = 1
		t.leafLo, t.leafHi = fr.ID(), fr.ID()
		b.pool.Unpin(fr, true)
		if err := t.syncMeta(); err != nil {
			return nil, err
		}
		return t, nil
	}
	level := b.leaves
	t.height = 1
	cap := t.innerCap()
	for len(level) > 1 {
		var parents []childEntry
		for i := 0; i < len(level); i += cap {
			end := i + cap
			if end > len(level) {
				end = len(level)
			}
			fr, err := b.pool.NewPage()
			if err != nil {
				return nil, err
			}
			data := fr.Data()
			initNode(data, kindInternal, byte(t.height))
			lo := make([]int64, t.dim)
			hi := make([]int64, t.dim)
			for j, ch := range level[i:end] {
				t.setInnerEntry(data, j, ch.lo, ch.hi, ch.page)
				for d := 0; d < t.dim; d++ {
					if j == 0 || ch.lo[d] < lo[d] {
						lo[d] = ch.lo[d]
					}
					if j == 0 || ch.hi[d] > hi[d] {
						hi[d] = ch.hi[d]
					}
				}
			}
			setNodeCount(data, end-i)
			parents = append(parents, childEntry{lo: lo, hi: hi, page: fr.ID()})
			b.pool.Unpin(fr, true)
		}
		level = parents
		t.height++
	}
	t.root = level[0].page
	if err := t.syncMeta(); err != nil {
		return nil, err
	}
	return t, nil
}
