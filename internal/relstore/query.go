package relstore

import (
	"fmt"
	"math"
	"time"

	"cubetree/internal/enc"
	"cubetree/internal/heapfile"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/workload"
)

// Execute answers a slice query against the conventional configuration. A
// Config's views, indexes, and heap files are read-only after Build/Open, so
// concurrent Executes contend only inside the sharded buffer pool.
//
// Planning mirrors the paper's Section 3.3 calibration: every materialized
// view covering the query's node is considered, with either a full table
// scan or an index whose leading attributes are all fixed by the query.
// Notably, a bigger view with a well-matched index routinely beats a
// smaller view without one — the paper's Q1 example where
// V{partkey,suppkey,custkey} plus I{partkey,suppkey,custkey} outruns
// V{partkey,suppkey}.
func (c *Config) Execute(q workload.Query) ([]workload.Row, error) {
	if c.obs != nil {
		return c.executeObserved(q)
	}
	rows, _, _, err := c.execute(q)
	return rows, err
}

// execute plans and runs q, also returning the chosen view and the number of
// view tuples the chosen access path examined.
func (c *Config) execute(q workload.Query) ([]workload.Row, int64, *MatView, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, nil, err
	}
	plan, err := c.plan(q)
	if err != nil {
		return nil, 0, nil, err
	}
	if plan.Index != nil {
		rows, scanned, err := c.executeIndex(plan.MatView, plan.Index, plan.PrefixLen, plan.RangeExtended, q)
		return rows, scanned, plan.MatView, err
	}
	rows, scanned, err := c.executeScan(plan.MatView, q)
	return rows, scanned, plan.MatView, err
}

// executeObserved is Execute with the observer attached; it mirrors the
// Cubetree engine's instrumentation so both configurations report comparable
// metrics (query counts, latency percentiles, slow queries with I/O deltas).
func (c *Config) executeObserved(q workload.Query) ([]workload.Row, error) {
	o := c.obs
	start := time.Now()
	before := c.opts.Stats.Snapshot()
	o.Queries.Inc()
	rows, scanned, mv, err := c.execute(q)
	dur := time.Since(start)
	if err != nil {
		o.QueryErrors.Inc()
	}
	o.PointsScanned.Add(uint64(scanned))
	o.QueryLatency.ObserveDuration(dur)
	if mv != nil && c.viewMetrics != nil {
		if vm := c.viewMetrics[mv.View.Key()]; vm != nil {
			vm.hits.Inc()
			vm.scanned.Add(uint64(scanned))
			vm.rows.Add(uint64(len(rows)))
		}
	}
	if o.Slow.Admits(dur) {
		view := ""
		if mv != nil {
			view = mv.View.String()
		}
		o.SlowQueries.Inc()
		o.Slow.Record(obs.SlowQuery{
			Time:     time.Now(),
			Query:    q.String(),
			View:     view,
			Duration: dur,
			Scanned:  scanned,
			Rows:     len(rows),
			IO:       c.opts.Stats.Snapshot().Sub(before),
		})
	}
	return rows, err
}

// PlanChoice describes the planner's decision for a query.
type PlanChoice struct {
	MatView *MatView
	// Index is nil for a table scan.
	Index *Index
	// PrefixLen is the number of leading index attributes bound by
	// equality predicates.
	PrefixLen int
	// RangeExtended reports whether the attribute after the prefix is
	// bounded by a range predicate.
	RangeExtended bool
	// EstPages is the estimated page cost.
	EstPages float64
}

// Plan exposes the planner's choice without executing, for tests and
// experiment reports.
func (c *Config) Plan(q workload.Query) (PlanChoice, error) {
	if err := q.Validate(); err != nil {
		return PlanChoice{}, err
	}
	return c.plan(q)
}

// randSeqRatio weights a random page access against a sequential one when
// comparing a full scan to an index probe, approximating a 1998 disk.
const randSeqRatio = 11

func (c *Config) plan(q workload.Query) (PlanChoice, error) {
	best := PlanChoice{EstPages: math.MaxFloat64}
	for _, key := range c.order {
		mv := c.views[key]
		if !mv.View.Covers(q.Node) {
			continue
		}
		// Table scan: sequential pages.
		scan := float64(mv.heap.Pages())
		if scan < best.EstPages {
			best = PlanChoice{MatView: mv, EstPages: scan}
		}
		// Index scans: usable prefix = leading index attrs fixed by q,
		// optionally extended by one trailing range predicate.
		for _, ix := range mv.indexes {
			prefix := 0
			sel := 1.0
			for _, a := range ix.Order {
				if _, ok := q.FixedValue(a); !ok {
					break
				}
				prefix++
				if dom := float64(c.domains[a]); dom > 1 {
					sel /= dom
				}
			}
			rangeExt := false
			if prefix < len(ix.Order) {
				if r, ok := q.RangeFor(ix.Order[prefix]); ok {
					rangeExt = true
					if dom := float64(c.domains[ix.Order[prefix]]); dom > 1 {
						width := float64(r.Hi-r.Lo) + 1
						if width > dom {
							width = dom
						}
						sel *= width / dom
					}
				}
			}
			if prefix == 0 && !rangeExt {
				continue
			}
			// Matching entries each cost ~1 random heap fetch, plus the
			// B-tree descent; random pages are weighted against the
			// sequential pages of a scan.
			matches := float64(mv.heap.Count()) * sel
			if matches < 1 {
				matches = 1
			}
			cost := (matches + float64(ix.tree.Height())) * randSeqRatio
			if cost < best.EstPages {
				best = PlanChoice{MatView: mv, Index: ix, PrefixLen: prefix,
					RangeExtended: rangeExt, EstPages: cost}
			}
		}
	}
	if best.MatView == nil {
		return PlanChoice{}, fmt.Errorf("relstore: no view covers %s", q)
	}
	return best, nil
}

// tupleFilter applies a query's equality and range predicates to encoded
// view tuples.
type tupleFilter struct {
	pos []int
	lo  []int64
	hi  []int64
}

// newTupleFilter resolves q's predicates against the view's tuple layout.
func newTupleFilter(q workload.Query, attrs []lattice.Attr) (tupleFilter, error) {
	var f tupleFilter
	add := func(attr lattice.Attr, lo, hi int64) error {
		at, err := attrPositions([]lattice.Attr{attr}, attrs)
		if err != nil {
			return err
		}
		f.pos = append(f.pos, at[0])
		f.lo = append(f.lo, lo)
		f.hi = append(f.hi, hi)
		return nil
	}
	for _, p := range q.Fixed {
		if err := add(p.Attr, p.Value, p.Value); err != nil {
			return f, err
		}
	}
	for _, r := range q.Ranges {
		if err := add(r.Attr, r.Lo, r.Hi); err != nil {
			return f, err
		}
	}
	return f, nil
}

// match reports whether the encoded tuple satisfies every predicate.
func (f tupleFilter) match(tuple []byte) bool {
	for i, p := range f.pos {
		v := enc.Field(tuple, p)
		if v < f.lo[i] || v > f.hi[i] {
			return false
		}
	}
	return true
}

// executeScan answers q by scanning the view's heap table. It also returns
// the number of heap tuples examined.
func (c *Config) executeScan(mv *MatView, q workload.Query) ([]workload.Row, int64, error) {
	nodePos, err := attrPositions(q.Node, mv.View.Attrs)
	if err != nil {
		return nil, 0, err
	}
	filter, err := newTupleFilter(q, mv.View.Attrs)
	if err != nil {
		return nil, 0, err
	}
	arity := mv.View.Arity()
	agg := workload.NewSchemaAggregator(len(q.Node), c.opts.Schema)
	group := make([]int64, len(q.Node))
	measures := make([]int64, c.opts.Schema.Len())
	var scanned int64
	err = mv.heap.Scan(func(_ heapfile.RID, tuple []byte) error {
		scanned++
		if !filter.match(tuple) {
			return nil
		}
		for i, p := range nodePos {
			group[i] = enc.Field(tuple, p)
		}
		for i := range measures {
			measures[i] = enc.Field(tuple, arity+i)
		}
		agg.AddMeasures(group, measures)
		return nil
	})
	if err != nil {
		return nil, scanned, err
	}
	return agg.Rows(), scanned, nil
}

// executeIndex answers q via a bounded index scan: equality values bind a
// key prefix, an optional range predicate bounds the next key column, and
// each matching entry costs a heap fetch plus residual filtering.
func (c *Config) executeIndex(mv *MatView, ix *Index, prefixLen int, rangeExt bool, q workload.Query) ([]workload.Row, int64, error) {
	k := len(ix.Order)
	lo := make([]int64, k)
	hi := make([]int64, k)
	for i := 0; i < k; i++ {
		lo[i], hi[i] = math.MinInt64, math.MaxInt64
	}
	for i := 0; i < prefixLen; i++ {
		v, _ := q.FixedValue(ix.Order[i])
		lo[i], hi[i] = v, v
	}
	if rangeExt && prefixLen < k {
		r, _ := q.RangeFor(ix.Order[prefixLen])
		lo[prefixLen], hi[prefixLen] = r.Lo, r.Hi
	}
	nodePos, err := attrPositions(q.Node, mv.View.Attrs)
	if err != nil {
		return nil, 0, err
	}
	filter, err := newTupleFilter(q, mv.View.Attrs)
	if err != nil {
		return nil, 0, err
	}
	arity := mv.View.Arity()
	agg := workload.NewSchemaAggregator(len(q.Node), c.opts.Schema)
	group := make([]int64, len(q.Node))
	measures := make([]int64, c.opts.Schema.Len())
	var scanned int64
	err = ix.tree.ScanRange(lo, hi, func(key []int64, val int64) error {
		// Keys between the bounds can still fall outside a bounded middle
		// column; skip them before paying the heap fetch.
		for i := 0; i < k; i++ {
			if key[i] < lo[i] || key[i] > hi[i] {
				return nil
			}
		}
		tuple, err := mv.heap.Get(int64ToRID(val))
		if err != nil {
			return err
		}
		scanned++
		if !filter.match(tuple) {
			return nil
		}
		for i, p := range nodePos {
			group[i] = enc.Field(tuple, p)
		}
		for i := range measures {
			measures[i] = enc.Field(tuple, arity+i)
		}
		agg.AddMeasures(group, measures)
		return nil
	})
	if err != nil {
		return nil, scanned, err
	}
	return agg.Rows(), scanned, nil
}
