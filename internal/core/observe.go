package core

import (
	"context"
	"time"

	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/rtree"
	"cubetree/internal/workload"
)

// startSpan counts a query on observer o and opens its root span, tagged
// with the trace ID carried by ctx so /debug/traces on this process can be
// filtered to one request. With a nil o it returns nil, which every span
// method accepts.
func startSpan(ctx context.Context, o *obs.Observer, q workload.Query) *obs.Span {
	if o == nil {
		return nil
	}
	sp := o.Tracer.StartRootShort("query")
	sp.SetTraceID(obs.TraceIDFrom(ctx))
	sp.SetStringer("query", q)
	o.Queries.Inc()
	return sp
}

// observeFailure records on o a query that failed before it was routed.
func observeFailure(o *obs.Observer, sp *obs.Span, start time.Time, err error) {
	if o == nil {
		return
	}
	o.QueryErrors.Inc()
	sp.SetStr("error", err.Error())
	sp.End()
	o.QueryLatency.ObserveDuration(time.Since(start))
}

// observe records one routed query on observer o: the span gets the routing
// decision, points scanned and the per-query pool I/O delta, the latency
// lands in the query histogram, the view's analytics advance, and a query
// past the slow threshold is logged with its I/O delta. The delta is a
// before/after snapshot of the forest's shared Stats, so under concurrent
// queries it may include pages of overlapping queries (see
// docs/OBSERVABILITY.md). st is non-nil exactly when the query was profiled.
func (f *Forest) observe(ctx context.Context, o *obs.Observer, sp *obs.Span, q workload.Query, best int, rows []workload.Row, scanned int64, st *rtree.SearchStats, delta pager.StatsSnapshot, dur time.Duration, err error) {
	if o == nil {
		return
	}
	p := &f.placements[best]
	// &p.View: boxing the pointer avoids copying the View into the interface.
	sp.SetStringer("view", &p.View)
	sp.SetInt("tree", int64(p.Tree))
	sp.SetInt("points_scanned", scanned)
	sp.SetInt("rows", int64(len(rows)))
	sp.SetInt("pool_hits", int64(delta.PoolHits))
	sp.SetInt("pool_misses", int64(delta.PoolMisses))
	if st != nil {
		o.ProfiledQueries.Inc()
		sp.SetInt("leaf_pages_read", st.LeafPagesRead)
		sp.SetInt("leaf_pages_skipped", st.LeafPagesSkipped)
	}
	if err != nil {
		o.QueryErrors.Inc()
		sp.SetStr("error", err.Error())
	}
	sp.End()
	o.PointsScanned.Add(uint64(scanned))
	o.QueryLatency.ObserveDuration(dur)
	if f.viewMetrics != nil {
		vm := &f.viewMetrics[best]
		vm.hits.Inc()
		vm.scanned.Add(uint64(scanned))
		vm.rows.Add(uint64(len(rows)))
	}
	if o.Slow.Admits(dur) {
		o.SlowQueries.Inc()
		o.Slow.Record(obs.SlowQuery{
			Time:     time.Now(),
			TraceID:  obs.TraceIDFrom(ctx),
			Query:    q.String(),
			View:     p.View.String(),
			Duration: dur,
			Scanned:  scanned,
			Rows:     len(rows),
			IO:       delta,
		})
	}
}
