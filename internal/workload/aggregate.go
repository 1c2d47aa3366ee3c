package workload

import (
	"math/bits"
	"slices"
	"sync"

	"cubetree/internal/lattice"
)

// Aggregator folds per-point measure vectors into result rows according to
// a measure schema. Both storage configurations use it so that query
// results are canonical and directly comparable.
//
// Groups live as raw int64 words in one flat arena, measures in another
// (cells × schema.Len(), folded in place). By default an open-addressing
// table maps a group's hash to its dense cell index and verifies against
// the arena, so the fold is exact for any int64 coordinates. When the
// caller promises grouped input (FoldRuns), AddBatch instead folds run
// length: it compares each point with the last cell only. The arenas,
// table and sort buffers are pooled scratch; Rows copies the answer out of
// them.
type Aggregator struct {
	width  int
	schema lattice.Schema
	s      *foldScratch // nil until the first observation and after Rows
	cells  int
	shift  uint // 64 - log2(len(s.table)): a hash's top bits pick its slot
	// ascending holds while every new cell's group is greater than the one
	// before it, i.e. the cells are already in canonical order.
	ascending bool
	// runs holds while the run-length fold is on: the cells are ascending
	// in the order that compares group columns major[0], major[1], …, and
	// a stable sort on the first prefix columns makes them canonical.
	runs   bool
	major  [maxRunWidth]uint8
	prefix int
}

// foldScratch is one query's working set, recycled through scratchPool.
type foldScratch struct {
	groups []int64  // cells × width, in insertion order
	meas   []int64  // cells × schema.Len()
	table  []uint32 // cell index + 1; 0 marks an empty slot
	order  []sortKey
	tmp    []sortKey
	point  []int64 // one gathered group followed by its measure vector
}

// sortKey is one cell under the radix sort: the digit source and the cell
// it belongs to.
type sortKey struct {
	key  uint64
	cell uint32
}

const (
	minTableSize = 64
	// maxRunWidth is the widest group the run-length fold takes; wider
	// ones keep the hash fold.
	maxRunWidth = 8
	// maxPooledWords bounds the arena words (8 bytes each) a scratch may
	// keep when it returns to the pool, so one huge answer does not stay
	// resident for the life of the process.
	maxPooledWords = 1 << 18
)

var scratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// NewAggregator creates an aggregator for groups of the given width with
// the default SUM/COUNT schema.
func NewAggregator(width int) *Aggregator {
	return NewSchemaAggregator(width, lattice.DefaultSchema())
}

// NewSchemaAggregator creates an aggregator folding measures per schema.
func NewSchemaAggregator(width int, schema lattice.Schema) *Aggregator {
	return &Aggregator{width: width, schema: schema, ascending: true}
}

// begin takes a scratch from the pool and sizes it for an empty fold.
func (a *Aggregator) begin() {
	s := scratchPool.Get().(*foldScratch)
	s.groups, s.meas = s.groups[:0], s.meas[:0]
	if n := a.width + len(a.schema); cap(s.point) < n {
		s.point = make([]int64, n)
	}
	a.s = s
	a.setTable(minTableSize)
}

// setTable installs an empty table of size slots (a power of two).
func (a *Aggregator) setTable(size int) {
	s := a.s
	if cap(s.table) < size {
		s.table = make([]uint32, size)
	} else {
		s.table = s.table[:size]
		clear(s.table)
	}
	a.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

func hashGroup(group []int64) uint64 {
	var h uint64
	for _, v := range group {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
	}
	return h
}

// Add folds one SUM/COUNT observation (only valid with the default
// schema; use AddMeasures otherwise).
func (a *Aggregator) Add(group []int64, sum, count int64) {
	m := [2]int64{sum, count}
	a.AddMeasures(group, m[:])
}

// AddMeasures folds one observation's full measure vector, which must
// match the aggregator's schema length. It always takes the hash fold: a
// run-length fold in progress is converted first.
func (a *Aggregator) AddMeasures(group []int64, measures []int64) {
	if a.s == nil {
		a.begin()
	}
	if a.runs {
		a.leaveRuns()
	}
	s, w, m := a.s, a.width, len(a.schema)
	mask := uint64(len(s.table) - 1)
	slot := hashGroup(group) >> a.shift
probe:
	for ; s.table[slot] != 0; slot = (slot + 1) & mask {
		c := int(s.table[slot] - 1)
		for j, v := range s.groups[c*w : c*w+w] {
			if v != group[j] {
				continue probe
			}
		}
		a.schema.Fold(s.meas[c*m:c*m+m], measures)
		return
	}
	n := a.cells
	if a.ascending && n > 0 && slices.Compare(s.groups[(n-1)*w:n*w], group[:w]) >= 0 {
		a.ascending = false
	}
	s.groups = append(s.groups, group[:w]...)
	s.meas = append(s.meas, measures[:m]...)
	a.cells++
	s.table[slot] = uint32(a.cells)
	if a.cells*2 > len(s.table) {
		a.rehash(len(s.table) * 4)
	}
}

// rehash re-inserts every cell into an empty table of the given size.
func (a *Aggregator) rehash(size int) {
	a.setTable(size)
	s, w := a.s, a.width
	mask := uint64(size - 1)
	for c := 0; c < a.cells; c++ {
		slot := hashGroup(s.groups[c*w:c*w+w]) >> a.shift
		for s.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.table[slot] = uint32(c + 1)
	}
}

// FoldRuns promises that the observations AddBatch will see arrive
// grouped: every group's points one after another, the groups ascending in
// the order that compares group columns major[0], major[1], … (a
// permutation of 0 … width-1). AddBatch then folds run length, with no
// hash table: a point equal to the last cell folds into it, a greater one
// opens the next cell. Rows reaches canonical order by a stable sort on
// the first prefix group columns alone, and copies the cells as they stand
// when prefix is 0. A point less than the last cell breaks the promise; it
// costs speed, never a row, because the fold then indexes the cells it has
// and carries on hashing. FoldRuns applies to the next fold only and must
// come before its first observation; otherwise, for a group wider than
// eight columns, or for a major that is no permutation, it does nothing.
func (a *Aggregator) FoldRuns(major []int, prefix int) {
	if a.cells > 0 || len(major) != a.width || a.width > maxRunWidth || prefix < 0 || prefix > a.width {
		return
	}
	var seen uint
	for k, j := range major {
		if j < 0 || j >= a.width || seen&(1<<j) != 0 {
			return
		}
		seen |= 1 << j
		a.major[k] = uint8(j)
	}
	a.runs, a.prefix = true, prefix
}

// leaveRuns turns a run-length fold into a hash fold: it indexes the cells
// gathered so far and marks them unsorted.
func (a *Aggregator) leaveRuns() {
	a.runs, a.ascending = false, a.cells < 2
	size := minTableSize
	for a.cells*2 > size {
		size *= 2
	}
	a.rehash(size)
}

// AddBatch folds the rows of a columnar batch whose bit is set in sel: row
// i's group is (cols[0][i], …, cols[width-1][i]) and its measure vector
// (meas[0][i], …) in schema order. It returns the number of rows folded.
func (a *Aggregator) AddBatch(cols, meas [][]int64, sel []uint64) int {
	if a.s == nil {
		a.begin()
	}
	if a.runs {
		return a.addRuns(cols, meas, sel)
	}
	return a.addHashed(cols, meas, sel, 0)
}

// addHashed is AddBatch's hash fold over the selected rows from row first
// on.
func (a *Aggregator) addHashed(cols, meas [][]int64, sel []uint64, first int) int {
	group, measures := a.s.point[:a.width], a.s.point[a.width:a.width+len(a.schema)]
	folded := 0
	for wi := first / 64; wi < len(sel); wi++ {
		word := sel[wi]
		if wi == first/64 {
			word &^= 1<<(first%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			i := wi*64 + bits.TrailingZeros64(word)
			for j := range group {
				group[j] = cols[j][i]
			}
			for j := range measures {
				measures[j] = meas[j][i]
			}
			a.AddMeasures(group, measures)
			folded++
		}
	}
	return folded
}

// addRuns is AddBatch's run-length fold. A point is compared with the one
// before it in the batch, the first with the last cell; the arenas are
// grown once per batch and held in locals, so the loop stores no slice
// header to the heap.
func (a *Aggregator) addRuns(cols, meas [][]int64, sel []uint64) int {
	s, w, m := a.s, a.width, len(a.schema)
	var byMajor [maxRunWidth][]int64
	for k := 0; k < w; k++ {
		byMajor[k] = cols[a.major[k]]
	}
	selected := 0
	for _, word := range sel {
		selected += bits.OnesCount64(word)
	}
	groups, cells := slices.Grow(s.groups, selected*w), slices.Grow(s.meas, selected*m)
	sumCount := m == 2 && a.schema[0] == lattice.AggSum && a.schema[1] == lattice.AggCount
	folded, prev := 0, -1
	for wi, word := range sel {
		for ; word != 0; word &= word - 1 {
			i := wi*64 + bits.TrailingZeros64(word)
			c := 0
			switch {
			case prev >= 0:
				for _, col := range byMajor[:w] {
					if v, p := col[i], col[prev]; v != p {
						c = 1
						if v < p {
							c = -1
						}
						break
					}
				}
			case len(cells) == 0:
				c = 1
			default:
				last := groups[len(groups)-w:]
				for k, col := range byMajor[:w] {
					if v, l := col[i], last[a.major[k]]; v != l {
						c = 1
						if v < l {
							c = -1
						}
						break
					}
				}
			}
			prev = i
			switch {
			case c == 0 && sumCount:
				cm := cells[len(cells)-2:]
				cm[0] += meas[0][i]
				cm[1] += meas[1][i]
			case c == 0:
				a.foldAt(cells[len(cells)-m:], meas, i)
			case c > 0:
				for _, col := range cols {
					groups = append(groups, col[i])
				}
				for _, col := range meas {
					cells = append(cells, col[i])
				}
			default:
				s.groups, s.meas, a.cells = groups, cells, len(cells)/m
				a.leaveRuns()
				return folded + a.addHashed(cols, meas, sel, i)
			}
			folded++
		}
	}
	s.groups, s.meas, a.cells = groups, cells, len(cells)/m
	return folded
}

// foldAt folds row i of the measure columns into one cell's measures.
func (a *Aggregator) foldAt(cell []int64, meas [][]int64, i int) {
	for j, agg := range a.schema {
		v := meas[j][i]
		switch agg {
		case lattice.AggSum, lattice.AggCount:
			cell[j] += v
		case lattice.AggMin:
			cell[j] = min(cell[j], v)
		case lattice.AggMax:
			cell[j] = max(cell[j], v)
		}
	}
}

// Rows returns the aggregated rows in canonical sorted order and leaves the
// aggregator empty. Cells that were inserted in canonical order are emitted
// as they stand; otherwise their indices are radix-sorted: by the first
// prefix columns after a run-length fold, by every column after a hash
// fold. All rows' Group (and Extra) slices are cap-limited windows of one
// arena each, so the answer costs a constant number of allocations.
func (a *Aggregator) Rows() []Row {
	s, n, w, m := a.s, a.cells, a.width, len(a.schema)
	rows := make([]Row, n)
	if s == nil {
		a.runs = false
		return rows
	}
	var order []sortKey
	switch {
	case n < 2, a.runs && a.prefix == 0:
	case a.runs:
		order = s.sortCells(n, w, a.prefix)
	case !a.ascending:
		order = s.sortCells(n, w, w)
	}
	// Growing by append allocates without zeroing what it copies, so the
	// arena is written once with the cells as they stand; the loop below
	// overwrites it in sorted order when there is an order. (An empty make
	// keeps a width-0 answer's groups non-nil.)
	groups := append(make([]int64, 0), s.groups[:n*w]...)
	var extras []int64
	if m > 2 {
		extras = make([]int64, n*(m-2))
	}
	for i := range rows {
		c := i
		if order != nil {
			c = int(order[i].cell)
			for j, v := range s.groups[c*w : c*w+w] {
				groups[i*w+j] = v
			}
		}
		// Field by field: the fresh rows are zero, and a whole-Row store
		// would move Extra's nil pointer through a write barrier too.
		r, cm := &rows[i], s.meas[c*m:c*m+m]
		r.Group, r.Sum, r.Count = groups[i*w:i*w+w:i*w+w], cm[0], cm[1]
		if m > 2 {
			e := extras[i*(m-2) : (i+1)*(m-2) : (i+1)*(m-2)]
			copy(e, cm[2:])
			r.Extra = e
		}
	}
	if cap(s.groups)+cap(s.meas) <= maxPooledWords {
		scratchPool.Put(s)
	}
	a.s, a.cells, a.ascending, a.runs = nil, 0, true, false
	return rows
}

// sortCells returns the n cells stably sorted by their first cols group
// columns; with cols = w that is canonical (lexicographic by group) order.
// It is an LSD radix sort — column cols-1 first, one byte at a time over
// each column's observed value range — so it compares no slices, and
// reading the digits from uint64 differences keeps it exact for any int64.
func (s *foldScratch) sortCells(n, w, cols int) []sortKey {
	if cap(s.order) < n {
		s.order, s.tmp = make([]sortKey, n), make([]sortKey, n)
	}
	from, to := s.order[:n], s.tmp[:n]
	for i := range from {
		from[i].cell = uint32(i)
	}
	for j := cols - 1; j >= 0; j-- {
		lo, hi := s.groups[j], s.groups[j]
		for c := 1; c < n; c++ {
			lo, hi = min(lo, s.groups[c*w+j]), max(hi, s.groups[c*w+j])
		}
		span := uint64(hi) - uint64(lo)
		inOrder, prev := true, uint64(0)
		for i := range from {
			from[i].key = uint64(s.groups[int(from[i].cell)*w+j]) - uint64(lo)
			inOrder, prev = inOrder && from[i].key >= prev, from[i].key
		}
		if inOrder {
			// A stable sort would move nothing. Points scanned in pack order
			// (last coordinate major) arrive like this in their last column.
			continue
		}
		for shift := 0; span>>shift != 0; shift += 8 {
			var next [256]int
			for i := range from {
				next[byte(from[i].key>>shift)]++
			}
			if next[byte(from[0].key>>shift)] == n {
				continue // every key has the same digit here
			}
			pos := 0
			for d, c := range next {
				next[d], pos = pos, pos+c
			}
			for _, k := range from {
				d := byte(k.key >> shift)
				to[next[d]] = k
				next[d]++
			}
			from, to = to, from
		}
	}
	return from
}
