package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/rtree"
	"cubetree/internal/workload"
)

// ErrNoPlacement is wrapped into the error returned when no materialized
// view (or replica) covers a query's node — a client-side query mistake, not
// an engine failure; a server maps it to a 4xx.
var ErrNoPlacement = errors.New("core: no placement covers query")

// Execute answers a slice query against the forest; it is ExecuteProfiledCtx
// without a context or a profile.
//
// Planning: among all placements whose view covers the query's node, the
// planner picks the one expected to touch the fewest leaves. Because a
// packed run is sorted last-coordinate-major, predicates on a suffix of the
// view's coordinates select a contiguous band of leaves; the estimator
// multiplies the run's leaf count by the selectivity of the fixed suffix.
// This is what makes replicas in different sort orders useful: each makes a
// different predicate set cheap.
func (f *Forest) Execute(q workload.Query) ([]workload.Row, error) {
	return f.ExecuteProfiledCtx(context.Background(), q, nil)
}

// ExecuteProfiledCtx is the forest's one query path. Once ctx is cancelled or
// past its deadline the leaf scan stops within one leaf page and the
// context's error is returned, so a timed-out or disconnected client stops
// consuming I/O instead of scanning to completion. A non-nil prof receives an
// EXPLAIN-ANALYZE-style breakdown of the execution: routing decision, points
// scanned, leaf pages read vs zone-map skipped, the per-query pool hit/miss
// delta, and wall time. With a nil prof and no observer attached the query
// reads no clock, takes no Stats snapshot and opens no span.
//
// The observer is read once, so a query whose observer is detached (or
// attached) mid-flight records all of its metrics on one observer or none.
func (f *Forest) ExecuteProfiledCtx(ctx context.Context, q workload.Query, prof *workload.QueryProfile) ([]workload.Row, error) {
	o := f.obs
	measured := o != nil || prof != nil
	var start time.Time
	var before pager.StatsSnapshot
	var sp *obs.Span
	if measured {
		start, before = time.Now(), f.stats.Snapshot()
		sp = startSpan(ctx, o, q)
	}
	best, err := f.plan(q)
	if err != nil {
		observeFailure(o, sp, start, err)
		return nil, err
	}
	p := &f.placements[best]
	var st *rtree.SearchStats
	if prof != nil {
		st = new(rtree.SearchStats)
	}
	rows, scanned, err := f.executeOn(ctx, p, q, st)
	if !measured {
		return rows, err
	}
	dur, delta := time.Since(start), f.stats.Snapshot().Sub(before)
	if prof != nil {
		fillProfile(prof, p, rows, scanned, st, delta, dur)
	}
	f.observe(ctx, o, sp, q, best, rows, scanned, st, delta, dur, err)
	return rows, err
}

// fillProfile populates prof from one execution's raw numbers.
func fillProfile(prof *workload.QueryProfile, p *Placement, rows []workload.Row, scanned int64, st *rtree.SearchStats, delta pager.StatsSnapshot, dur time.Duration) {
	prof.View = p.View.String()
	prof.Tree = p.Tree
	prof.PointsScanned = scanned
	prof.RowsReturned = int64(len(rows))
	prof.LeafPagesRead = st.LeafPagesRead
	prof.LeafPagesSkipped = st.LeafPagesSkipped
	prof.PoolHits = int64(delta.PoolHits)
	prof.PoolMisses = int64(delta.PoolMisses)
	prof.DurationNS = int64(dur)
}

// plan validates q and returns the index of the cheapest placement covering
// it. It is the one place a query no view covers becomes ErrNoPlacement.
func (f *Forest) plan(q workload.Query) (int, error) {
	if err := q.Validate(); err != nil {
		return -1, err
	}
	best := -1
	bestCost := math.MaxFloat64
	for i := range f.placements {
		p := &f.placements[i]
		if !p.View.Covers(q.Node) {
			continue
		}
		cost := f.placementCost(p, q)
		if cost < bestCost {
			bestCost = cost
			best = i
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("%w: %s", ErrNoPlacement, q)
	}
	return best, nil
}

// placementCost estimates work when answering q on p, in points touched.
// Because a packed run is sorted last-coordinate-major, predicates on a
// suffix of the view's coordinates select a contiguous band of the run;
// the estimator scales the run's point count by that suffix's selectivity.
func (f *Forest) placementCost(p *Placement, q workload.Query) float64 {
	points := float64(p.Run.Points)
	if points < 1 {
		points = 1
	}
	// Selectivity of the maximal constrained suffix of the coordinate
	// order: equality predicates select 1/dom, ranges their width/dom.
	sel := 1.0
	for j := p.View.Arity() - 1; j >= 0; j-- {
		attr := p.View.Attrs[j]
		dom := float64(f.domains[attr])
		if _, ok := q.FixedValue(attr); ok {
			if dom > 1 {
				sel /= dom
			}
			continue
		}
		if r, ok := q.RangeFor(attr); ok {
			if dom > 1 {
				width := float64(r.Hi-r.Lo) + 1
				if width > dom {
					width = dom
				}
				sel *= width / dom
			}
			continue
		}
		break
	}
	est := points * sel
	if est < 1 {
		est = 1
	}
	// Tree height approximates the constant descent cost.
	return est + float64(f.trees[p.Tree].Height())
}

// stackDims is how many dimensions a query's rectangle and column picks
// may have and still live on executeOn's stack.
const stackDims = 8

// executeOn runs q against placement p and aggregates the matching points
// by the query's node attributes. It also returns the number of stored
// points the search visited, for per-query observability. The scan hands
// over one leaf's decoded columns at a time; ctx is polled once per leaf, so
// cancellation stops the scan within a page. st, when non-nil, accumulates
// leaf read/skip counts for a query profile.
//
// The fold is planned from p's sort order (foldOrder). When the scan hands
// over each group's points one after another, the fold is run length, with
// no hash table, and the answer is radix-sorted on only the leading group
// columns that storage order leaves out of canonical order (often none).
// Otherwise every point is hashed and the answer sorted on every column.
func (f *Forest) executeOn(ctx context.Context, p *Placement, q workload.Query, st *rtree.SearchStats) ([]workload.Row, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	tree := f.trees[p.Tree]
	dim, width := tree.Dim(), len(q.Node)
	var rectBuf [2 * stackDims]int64
	var posBuf, majorBuf [stackDims]int
	var colBuf [stackDims][]int64
	rect, groupPos, major, cols := rectBuf[:], posBuf[:], majorBuf[:], colBuf[:]
	if dim > stackDims || width > stackDims {
		rect, groupPos, major, cols = make([]int64, 2*dim), make([]int, width), make([]int, width), make([][]int64, width)
	}
	lo, hi := rect[:dim], rect[dim:2*dim]
	groupPos, major, cols = groupPos[:width], major[:width], cols[:width]
	arity := p.View.Arity()
	for j := 0; j < arity; j++ {
		attr := p.View.Attrs[j]
		switch {
		case fixedAt(q, attr, &lo[j], &hi[j]):
		case rangeAt(q, attr, &lo[j], &hi[j]):
		default:
			lo[j], hi[j] = 1, math.MaxInt64
		}
	}
	// Coordinates beyond the view's arity stay [0,0], confining the search
	// to this view's region of the shared index space.
	if err := groupPositions(p, q, groupPos); err != nil {
		return nil, 0, err
	}

	agg := workload.NewSchemaAggregator(width, f.schema)
	if grouped, prefix := foldOrder(p, q, groupPos, major); grouped && !hashFoldOnly {
		agg.FoldRuns(major, prefix)
	}
	var scanned int64
	err := tree.SearchLeaves(lo, hi, func(b *rtree.LeafBatch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, pos := range groupPos {
			cols[i] = b.Coords[pos]
		}
		scanned += int64(agg.AddBatch(cols, b.Measures, b.Sel))
		return nil
	}, st)
	if err != nil {
		return nil, scanned, err
	}
	return agg.Rows(), scanned, nil
}

// groupPositions fills groupPos with the coordinate of each of q's group-by
// attributes in p's view.
func groupPositions(p *Placement, q workload.Query, groupPos []int) error {
	for i, a := range q.Node {
		pos := slices.Index(p.View.Attrs, a)
		if pos < 0 {
			return fmt.Errorf("core: attribute %q missing from %s", a, p.View)
		}
		groupPos[i] = pos
	}
	return nil
}

// hashFoldOnly sends every query through the hash fold, so tests can check
// the run-length fold against it.
var hashFoldOnly bool

// foldOrder reports how p's scan hands q's points to the fold. A packed
// run is sorted last coordinate major, the scan visits it in pack order,
// and an equality predicate holds its coordinate constant. So when q's
// unfixed group-by columns are exactly the most-major unfixed coordinates,
// each group's points arrive one after another and the groups ascend in
// storage-major order: grouped. major receives the group columns (indices
// into q.Node, whose coordinates are groupPos) in that order, most major
// first. prefix is the fewest leading group columns a stable sort of
// storage-ordered cells must key on to reach canonical order, 0 when storage
// order already is canonical. It allocates nothing.
func foldOrder(p *Placement, q workload.Query, groupPos, major []int) (grouped bool, prefix int) {
	arity := p.View.Arity()
	if arity > 64 {
		return false, 0
	}
	var fixed, inGroup uint64 // by coordinate
	for j, attr := range p.View.Attrs {
		if _, ok := q.FixedValue(attr); ok {
			fixed |= 1 << j
		}
	}
	// major: the group columns by descending coordinate (insertion sort).
	for i, pos := range groupPos {
		inGroup |= 1 << pos
		k := i
		for ; k > 0 && groupPos[major[k-1]] < pos; k-- {
			major[k] = major[k-1]
		}
		major[k] = i
	}
	// grouped: walking the unfixed coordinates from the most major, the
	// group's unfixed ones come before any other.
	loose := inGroup &^ fixed
	for j := arity - 1; j >= 0 && loose != 0; j-- {
		if fixed&(1<<j) != 0 {
			continue
		}
		if inGroup&(1<<j) == 0 {
			return false, 0
		}
		loose &^= 1 << j
	}
	// prefix: the unfixed group columns after it must descend in coordinate
	// from left to right, so that storage order sorts them canonically.
	right := -1
	for i := len(groupPos) - 1; i >= 0; i-- {
		pos := groupPos[i]
		if fixed&(1<<pos) != 0 {
			continue
		}
		if pos < right {
			return true, i + 1
		}
		right = pos
	}
	return true, 0
}

// PlanInfo describes which placement the planner would use for q, for
// experiment reporting and tests.
type PlanInfo struct {
	Placement Placement
	EstLeaves float64
}

// Plan returns the planner's choice for q without executing it.
func (f *Forest) Plan(q workload.Query) (PlanInfo, error) {
	best, err := f.plan(q)
	if err != nil {
		return PlanInfo{}, err
	}
	p := &f.placements[best]
	return PlanInfo{Placement: *p, EstLeaves: f.placementCost(p, q)}, nil
}

// fixedAt narrows [lo,hi] to an equality predicate's value, if present.
func fixedAt(q workload.Query, attr lattice.Attr, lo, hi *int64) bool {
	v, ok := q.FixedValue(attr)
	if ok {
		*lo, *hi = v, v
	}
	return ok
}

// rangeAt narrows [lo,hi] to a range predicate's bounds, if present. The
// lower bound is clamped to 1 so the search stays inside the view's region
// of the shared index space (coordinate 0 belongs to lower-arity views).
func rangeAt(q workload.Query, attr lattice.Attr, lo, hi *int64) bool {
	r, ok := q.RangeFor(attr)
	if ok {
		*lo, *hi = r.Lo, r.Hi
		if *lo < 1 {
			*lo = 1
		}
	}
	return ok
}
