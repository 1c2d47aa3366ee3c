package main

// traced.go: the traced run. It produces every per-layer metric: a window
// measured twice (without and with profiles, whose difference is what
// tracing costs), the counted pass, a refresh under an observer, and the
// layer ledger; then it writes the span file.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func (r *runner) tracedRun(dir string, window time.Duration, traceOut string) error {
	sys, err := setUp(r.rd, r.sp, r.sc, filepath.Join(dir, "setup"), r.in, true)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	m := r.res.metrics
	for _, d := range perLayer {
		m[d.name] = 0 // a layer this workload does not cross reports zero
	}
	pids := sys.pids()
	r.window(sys, windowOpts{clients: r.sp.clients, dur: r.sc.warm, generation: 1})

	// The same closed loop twice: plain, then with a profile per request and
	// spans recorded. End-to-end metrics come from neither.
	half := windowOpts{clients: r.sp.clients, dur: window / 2, generation: 1, record: true}
	before, err := sys.engine()
	if err != nil {
		return err
	}
	cpu, mem := cpuSeconds(pids), readMem()
	plain := r.window(sys, half)
	cpu, memAfter := cpuSeconds(pids)-cpu, readMem()
	after, err := sys.engine()
	if err != nil {
		return err
	}
	half.traced = true
	traced := r.window(sys, half)

	queries := float64(len(plain.lat))
	m["obs.trace_overhead_share"] = 1 - ratio(traced.qps(), plain.qps())
	m["proc.cpu_s_per_kquery"] = ratio(cpu, queries/1000)
	m["proc.allocs_per_query"] = ratio(float64(memAfter.mallocs-mem.mallocs), queries)
	m["proc.gc_pause_ms_max"] = float64(memAfter.maxPauseSince(mem)) / 1e6
	if r.sp.front != frontLibrary {
		hits := float64(after.Counters["server_cache_hits_total"] - before.Counters["server_cache_hits_total"])
		misses := float64(after.Counters["server_cache_misses_total"] - before.Counters["server_cache_misses_total"])
		m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
		m["server.response_bytes_per_query"] = ratio(float64(plain.bytes), queries)
		m["server.self_ms_p50"] = nsToMS(percentile(sortedCopy(traced.prof.selfNS), 0.50))
	}
	if r.sp.front == frontCluster {
		legs := sortedCopy(traced.prof.legNS)
		m["dist.shard_leg_ms_p50"] = nsToMS(percentile(legs, 0.50))
		m["dist.shard_leg_ms_p99"] = nsToMS(percentile(legs, 0.99))
		m["dist.coord_self_ms_p50"] = nsToMS(percentile(sortedCopy(traced.prof.coordSelfN), 0.50))
		m["dist.straggler_share"] = ratio(float64(traced.prof.straggled), float64(traced.prof.queries))
		m["dist.retries_total"] = float64(traced.prof.retries)
	}

	if err := r.countedPass(sys); err != nil {
		return err
	}
	if err := r.observedRefresh(sys); err != nil {
		return err
	}
	r.checkAfterRefresh(sys)
	if r.sp.front != frontLibrary {
		end, err := sys.engine()
		if err != nil {
			return err
		}
		m["server.queue_wait_ms_p99"] = nsToMS(end.Histograms["server_queue_wait_ns"].P99)
		m["server.shed_total"] = float64(end.Counters["server_shed_total"])
	}
	m["proc.peak_rss_mb"] = peakRSSMB(pids)

	if err := runLedger(filepath.Join(dir, "ledger"), r.in, r.sc, m); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}

	if traceOut == "" {
		traceOut = filepath.Join(os.TempDir(), "ctbench-trace-"+r.sp.name+".jsonl")
	}
	r.res.traceFile = traceOut
	r.res.spans, err = writeSpans(traceOut, r.logs)
	return err
}

// countedPass replays a prefix of the list once, one client, from a defined
// pool state — a freshly opened warehouse in process, then one warming pass
// everywhere — so page and point counts repeat exactly for a seed. It also
// holds the workloads to their shapes.
func (r *runner) countedPass(sys system) error {
	if lib, ok := sys.(*libSystem); ok {
		if err := lib.reopen(); err != nil {
			return err
		}
	}
	pass := windowOpts{clients: 1, limit: r.sc.countedSlice, generation: 1}
	if r.sp.scan {
		pass.limit = r.sc.countedScan
	}
	r.window(sys, pass)
	before, err := sys.engine()
	if err != nil {
		return err
	}
	pass.traced, pass.record = true, true
	w := r.window(sys, pass)
	after, err := sys.engine()
	if err != nil {
		return err
	}
	p, io, m := &w.prof, after.io().sub(before.io()), r.res.metrics
	n := float64(p.queries)
	m["pager.pool_hit_ratio"] = ratio(float64(p.poolHits), float64(p.poolHits+p.poolMisses))
	m["pager.misses_per_query"] = ratio(float64(p.poolMisses), n)
	m["pager.rand_read_share"] = ratio(float64(io.RandReads), float64(io.RandReads+io.SeqReads))
	m["pager.pool_wait_ns_per_query"] = ratio(float64(io.PoolWaitNanos), n)
	m["pager.io_model_ms_per_query"] = ratio(io.modelMS(), n)
	m["rtree.points_scanned_per_query"] = ratio(float64(p.points), n)
	m["rtree.points_scanned_per_row"] = ratio(float64(p.points), float64(p.rows))
	m["rtree.leaf_pages_read_per_query"] = ratio(float64(p.leafRead), n)
	m["rtree.leaf_skip_ratio"] = ratio(float64(p.leafSkipped), float64(p.leafRead+p.leafSkipped))
	_, points, leafPages := sys.footprint()
	m["rtree.points_per_leaf_page"] = ratio(float64(points), float64(leafPages))

	median := percentile(sortedCopy(p.pointsPerQuery), 0.50)
	switch r.sp.name {
	case "scan_cold":
		if median < r.sc.scanMinPoints {
			r.problem("shape: median points scanned per query is %d, want at least %d", median, r.sc.scanMinPoints)
		}
	case "slice_hot":
		if median > r.sc.sliceMaxPoints {
			r.problem("shape: median points scanned per query is %d, want at most %d", median, r.sc.sliceMaxPoints)
		}
		if hit := m["pager.pool_hit_ratio"]; hit < sliceMinHit {
			r.problem("shape: pool hit ratio is %.4f, want at least %.2f", hit, sliceMinHit)
		}
	}
	return nil
}

// observedRefresh applies the increments with no reader beside them and
// reads the refresh's page I/O and phase times from the engine's counters.
func (r *runner) observedRefresh(sys system) error {
	before, err := sys.engine()
	if err != nil {
		return err
	}
	log := &spanLog{client: uint64(len(r.logs) + 1)}
	r.logs = append(r.logs, log)
	var rows int
	for _, inc := range r.in.increments {
		rows += len(inc)
	}
	r.refreshAll(sys, log)
	after, err := sys.engine()
	if err != nil {
		return err
	}
	io, m, krows, n := after.io().sub(before.io()), r.res.metrics, float64(rows)/1000, float64(len(r.in.increments))
	all := float64(io.SeqReads + io.RandReads + io.SeqWrites + io.RandWrites)
	m["pager.refresh_seq_share"] = ratio(float64(io.SeqReads+io.SeqWrites), all)
	m["pager.refresh_io_ms_per_krow"] = ratio(io.modelMS(), krows)
	m["pager.refresh_pages_written_per_krow"] = ratio(float64(io.SeqWrites+io.RandWrites), krows)
	// Phase times are per increment.
	m["core.refresh_merge_s"] = phaseSeconds(after, before, "refresh_merge") / n
	m["core.refresh_swap_s"] = phaseSeconds(after, before, "refresh_swap") / n
	m["cube.refresh_sort_s"] = phaseSeconds(after, before, "refresh_sort") / n
	m["cube.refresh_reorder_s"] = phaseSeconds(after, before, "refresh_reorder") / n
	load, err := observerSnap(sys.loadObserver())
	m["cube.compute_s"] = phaseSeconds(load, metricsSnap{}, "materialize_compute")
	return err
}
