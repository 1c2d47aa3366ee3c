package rtree

import (
	"errors"
	"fmt"

	"cubetree/internal/pager"
)

// ErrDone signals the normal end of a PointIterator.
var ErrDone = errors.New("rtree: iterator exhausted")

// Done reports whether err marks the normal end of a PointIterator.
func Done(err error) bool { return err == ErrDone }

// PointIterator yields points in pack order. Next returns an error for
// which Done reports true after the last point.
type PointIterator interface {
	// Next returns the next point's full-dimensional coordinates and its
	// measures. The slices are reused between calls.
	Next() (coords []int64, measures []int64, err error)
	Close() error
}

// RunIterator streams the points of one view run with sequential page
// reads. The run's leaves are physically contiguous, so this is the linear
// scan the merge-pack update relies on.
func (t *Tree) RunIterator(run RunInfo) PointIterator {
	return &runIterator{
		t:        t,
		next:     run.FirstLeaf,
		last:     run.LastLeaf,
		coords:   make([]int64, t.dim),
		measures: make([]int64, t.measures),
	}
}

type runIterator struct {
	t        *Tree
	next     pager.PageID
	last     pager.PageID
	dec      leafDecoder // the current page, fully decoded
	idx      int
	coords   []int64
	measures []int64
	err      error
}

func (it *runIterator) Next() ([]int64, []int64, error) {
	for it.err == nil && it.idx >= it.dec.count() {
		it.err = it.nextLeaf()
	}
	if it.err != nil {
		return nil, nil, it.err
	}
	it.dec.point(it.idx, it.coords, it.measures)
	it.idx++
	return it.coords, it.measures, nil
}

// nextLeaf decodes the run's next page. The decoder copies every column out
// of the page, so the frame is unpinned at once.
func (it *runIterator) nextLeaf() error {
	if it.next > it.last {
		return ErrDone
	}
	fr, err := it.t.pool.Fetch(it.next)
	if err != nil {
		return err
	}
	err = it.t.readLeaf(fr.Data(), &it.dec)
	it.t.pool.Unpin(fr, false)
	if err != nil {
		return fmt.Errorf("rtree: leaf %d: %w", it.next, err)
	}
	it.next++
	it.idx = 0
	return nil
}

func (it *runIterator) Close() error {
	if it.err == nil || it.err == ErrDone {
		return nil
	}
	return it.err
}

// SlicePoints is an in-memory PointIterator over pre-sorted points, used for
// deltas and tests.
type SlicePoints struct {
	Coords   [][]int64 // full-dimensional coordinates in pack order
	Measures [][]int64
	i        int
}

// Next implements PointIterator.
func (s *SlicePoints) Next() ([]int64, []int64, error) {
	if s.i >= len(s.Coords) {
		return nil, nil, ErrDone
	}
	c, m := s.Coords[s.i], s.Measures[s.i]
	s.i++
	return c, m, nil
}

// Close implements PointIterator.
func (s *SlicePoints) Close() error { return nil }
