package main

// trace.go: spans recorded from the benchmark's own files, around the calls
// into each layer. Children of a daemon request are synthesised from the
// "profile": true payload the daemon already returns; tracing inside the
// program is a later issue. Spans stay in memory and are written when the
// run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"cubetree"
)

// span is one line of the trace file. A span's self time is its duration
// minus the part of it its children cover.
type span struct {
	Trace  uint64           `json:"trace"`
	Span   uint64           `json:"span"`
	Parent uint64           `json:"parent"` // 0 for a root
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the run began
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// maxSpans bounds one client's span buffer; a hot in-process window would
// otherwise record millions. Dropped spans are counted.
const maxSpans = 1 << 14

// spanLog is one client's buffer; no locking, one goroutine writes it.
type spanLog struct {
	client  uint64
	spans   []span
	next    uint64
	dropped int
}

func (l *spanLog) id() uint64 {
	l.next++
	return l.client<<40 | l.next
}

func profileCounts(p *cubetree.QueryProfile) map[string]int64 {
	return map[string]int64{
		"points_scanned": p.PointsScanned, "rows_returned": p.RowsReturned,
		"leaf_pages_read": p.LeafPagesRead, "leaf_pages_skipped": p.LeafPagesSkipped,
		"pool_hits": p.PoolHits, "pool_misses": p.PoolMisses,
	}
}

// request records one profiled request that ran from start to end. In
// process it is a single warehouse.query span; through a daemon it is
// client.request ⊃ server.engine ⊃ dist.shard_leg[i] ⊃ shard.engine, each
// child centred in its parent because the profile carries durations, not
// clock readings. The shard legs of one request run side by side.
func (l *spanLog) request(sp spec, start, end int64, p *cubetree.QueryProfile) {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	trace := l.id()
	if sp.front == frontLibrary {
		l.spans = append(l.spans, span{trace, trace, 0, "warehouse.query", start, end, profileCounts(p)})
		return
	}
	l.spans = append(l.spans, span{Trace: trace, Span: trace, Name: "client.request", Start: start, End: end})
	engine := l.child(trace, trace, "server.engine", start, end, p.DurationNS, profileCounts(p))
	for i := range p.Shards {
		sh := &p.Shards[i]
		leg := l.child(trace, engine.Span, fmt.Sprintf("dist.shard_leg[%d]", i), engine.Start, engine.End, sh.DurationNS,
			map[string]int64{"shard": int64(i), "attempts": int64(sh.Attempts)})
		if sh.Profile != nil {
			l.child(trace, leg.Span, "shard.engine", leg.Start, leg.End, sh.Profile.DurationNS, profileCounts(sh.Profile))
		}
	}
}

// child appends a span of the given duration centred in [start, end].
func (l *spanLog) child(trace, parent uint64, name string, start, end, dur int64, counts map[string]int64) span {
	dur = min(dur, end-start)
	s := span{trace, l.id(), parent, name, start + (end-start-dur)/2, 0, counts}
	s.End = s.Start + dur
	l.spans = append(l.spans, s)
	return s
}

// update records one refresh: warehouse.update ⊃ sort, reorder, merge and
// swap laid end to end, their durations taken from the phase histograms.
func (l *spanLog) update(start, end int64, rows int, after, before metricsSnap) {
	trace := l.id()
	l.spans = append(l.spans, span{trace, trace, 0, "warehouse.update", start, end, map[string]int64{"rows": int64(rows)}})
	at := start
	for _, phase := range []string{"refresh_sort", "refresh_reorder", "refresh_merge", "refresh_swap"} {
		dur := int64(phaseSeconds(after, before, phase) * 1e9)
		l.spans = append(l.spans, span{Trace: trace, Span: l.id(), Parent: trace, Name: phase, Start: at, End: at + dur})
		at += dur
	}
}

// writeSpans writes the logs as JSON lines and returns the span count.
func writeSpans(path string, logs []*spanLog) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
