package rtree

import (
	"fmt"

	"cubetree/internal/enc"
)

// Leaf format v1, read-only: row-major fixed-width leaf pages.
//
//	node header (8 bytes)   kind=kindLeaf, aux=arity, count u16
//	entries                 count × (arity + measures) × 8 bytes, each point's
//	                        coordinates then its measures, little-endian int64
//
// Nothing writes this layout any more — Builder emits v2 leaves only — but
// files packed before v2 are supported input: they open, validate, scrub and
// answer searches through the decoders below. Merge-pack reads the old tree
// through RunIterator and writes through Builder, so a v1 tree comes out of
// its next refresh as v2; there is no other migration. The reference writer
// the read path is tested against lives in leafv1_test.go.

// leafEntrySize is the bytes per point on a v1 leaf of the given arity.
func (t *Tree) leafEntrySize(arity int) int { return enc.TupleSize(arity + t.measures) }

// leafPoint decodes entry i of v1 leaf b into coords (len dim, zero padded)
// and measures (len measures). Both must be caller-provided slices.
func (t *Tree) leafPoint(b []byte, i int, coords, measures []int64) {
	arity := int(nodeAux(b))
	es := t.leafEntrySize(arity)
	off := nodeHeaderSize + i*es
	for j := 0; j < arity; j++ {
		coords[j] = enc.Field(b[off:], j)
	}
	for j := arity; j < t.dim; j++ {
		coords[j] = 0
	}
	for j := 0; j < t.measures; j++ {
		measures[j] = enc.Field(b[off:], arity+j)
	}
}

// searchLeafV1 scans one row-major leaf into the scratch batch. v1 leaves
// carry no zone maps: every visited leaf is a read.
func (t *Tree) searchLeafV1(b []byte, lo, hi []int64, s *scanScratch, fn VisitLeaf) error {
	if s.stats != nil {
		s.stats.LeafPagesRead++
	}
	n := nodeCount(b)
	s.grow(t.dim, n)
	clear(s.sel)
	coords, measures := s.entry[:t.dim], s.entry[t.dim:t.dim+t.measures]
	for i := 0; i < n; i++ {
		t.leafPoint(b, i, coords, measures)
		if !pointInRect(coords, lo, hi) {
			continue
		}
		s.sel[i/64] |= 1 << (i % 64)
		for j, v := range coords {
			s.cols[j][i] = v
		}
		for m, v := range measures {
			s.meas[m][i] = v
		}
	}
	if enc.SelectionEmpty(s.sel) {
		return nil
	}
	s.batch.Coords = append(s.batch.Coords[:0], s.cols[:t.dim]...)
	s.batch.Measures, s.batch.Sel = s.meas, s.sel
	return fn(&s.batch)
}

// scrubLeafV1 checks that v1 leaf b's entries fit the page payload and
// returns its point count.
func (t *Tree) scrubLeafV1(b []byte) (int, error) {
	n := nodeCount(b)
	if need := nodeHeaderSize + n*t.leafEntrySize(int(nodeAux(b))); need > t.payload() {
		return 0, fmt.Errorf("%d v1 entries exceed payload", n)
	}
	return n, nil
}
