package main

// metrics.go: the declared metric set — the same names, units and bounds as
// BENCHMARK.json (bench_test.go holds the two together) — plus the counter
// snapshots and process accounting the per-layer metrics are derived from.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cubetree"
)

// metricDecl is one declared metric.
type metricDecl struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees; every workload reports all of
// them and every one is gated.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"refresh_rows_per_s", "rows/s", "higher", 0.25},
	{"bytes_per_point", "B/point", "lower", 0.02},
}

// perLayer is reported by a traced run, never gated. The layer is the Go
// package name before the dot.
var perLayer = []metricDecl{
	{name: "pager.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "pager.misses_per_query", unit: "pages", better: "lower"},
	{name: "pager.rand_read_share", unit: "ratio", better: "lower"},
	{name: "pager.pool_wait_ns_per_query", unit: "ns", better: "lower"},
	{name: "pager.io_model_ms_per_query", unit: "model_ms", better: "lower"},
	{name: "pager.fetch_hit_ns", unit: "ns", better: "lower"},
	{name: "pager.fetch_miss_ns", unit: "ns", better: "lower"},
	{name: "pager.refresh_seq_share", unit: "ratio", better: "higher"},
	{name: "pager.refresh_io_ms_per_krow", unit: "model_ms", better: "lower"},
	{name: "pager.refresh_pages_written_per_krow", unit: "pages", better: "lower"},
	{name: "rtree.points_scanned_per_query", unit: "points", better: "lower"},
	{name: "rtree.points_scanned_per_row", unit: "points", better: "lower"},
	{name: "rtree.leaf_pages_read_per_query", unit: "pages", better: "lower"},
	{name: "rtree.leaf_skip_ratio", unit: "ratio", better: "higher"},
	{name: "rtree.points_per_leaf_page", unit: "points", better: "higher"},
	{name: "rtree.search_ns_per_point", unit: "ns", better: "lower"},
	{name: "rtree.pack_ns_per_point", unit: "ns", better: "lower"},
	{name: "rtree.mergerun_ns_per_point", unit: "ns", better: "lower"},
	{name: "enc.filter_ns_per_point", unit: "ns", better: "lower"},
	{name: "enc.unpack_select_ns_per_point", unit: "ns", better: "lower"},
	{name: "enc.pack_ns_per_point", unit: "ns", better: "lower"},
	{name: "enc.bytes_per_point", unit: "B/point", better: "lower"},
	{name: "core.execute_ns_p50", unit: "ns", better: "lower"},
	{name: "core.plan_ns", unit: "ns", better: "lower"},
	{name: "core.allocs_per_query", unit: "count", better: "lower"},
	{name: "core.warehouse_self_ns", unit: "ns", better: "lower"},
	{name: "core.refresh_merge_s", unit: "s", better: "lower"},
	{name: "core.refresh_swap_s", unit: "s", better: "lower"},
	{name: "cube.compute_s", unit: "s", better: "lower"},
	{name: "cube.refresh_sort_s", unit: "s", better: "lower"},
	{name: "cube.refresh_reorder_s", unit: "s", better: "lower"},
	{name: "extsort.sort_ns_per_row", unit: "ns", better: "lower"},
	{name: "extsort.spill_runs", unit: "count", better: "lower"},
	{name: "sqlish.parse_ns", unit: "ns", better: "lower"},
	{name: "sqlish.format_ns_per_row", unit: "ns", better: "lower"},
	{name: "server.self_ms_p50", unit: "ms", better: "lower"},
	{name: "server.queue_wait_ms_p99", unit: "ms", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.response_bytes_per_query", unit: "B", better: "lower"},
	{name: "dist.coord_self_ms_p50", unit: "ms", better: "lower"},
	{name: "dist.shard_leg_ms_p50", unit: "ms", better: "lower"},
	{name: "dist.shard_leg_ms_p99", unit: "ms", better: "lower"},
	{name: "dist.straggler_share", unit: "ratio", better: "lower"},
	{name: "dist.retries_total", unit: "count", better: "lower"},
	{name: "dist.frame_encode_ns_per_row", unit: "ns", better: "lower"},
	{name: "dist.frame_decode_ns_per_row", unit: "ns", better: "lower"},
	{name: "dist.wire_bytes_per_row", unit: "B", better: "lower"},
	{name: "workload.merge_partials_ns_per_row", unit: "ns", better: "lower"},
	{name: "workload.aggregate_ns_per_point", unit: "ns", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "proc.cpu_s_per_kquery", unit: "s", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.allocs_per_query", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms_max", unit: "ms", better: "lower"},
}

// --- counter snapshots --------------------------------------------------------------

// ioCounts mirrors the page I/O counters of cubetree.Stats.
type ioCounts struct {
	SeqReads, RandReads, SeqWrites, RandWrites uint64
	PoolHits, PoolMisses                       uint64
	PoolWaits, PoolWaitNanos                   uint64
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		a.SeqReads - b.SeqReads, a.RandReads - b.RandReads, a.SeqWrites - b.SeqWrites, a.RandWrites - b.RandWrites,
		a.PoolHits - b.PoolHits, a.PoolMisses - b.PoolMisses, a.PoolWaits - b.PoolWaits, a.PoolWaitNanos - b.PoolWaitNanos,
	}
}

func (a *ioCounts) add(b ioCounts) {
	a.SeqReads += b.SeqReads
	a.RandReads += b.RandReads
	a.SeqWrites += b.SeqWrites
	a.RandWrites += b.RandWrites
	a.PoolHits += b.PoolHits
	a.PoolMisses += b.PoolMisses
	a.PoolWaits += b.PoolWaits
	a.PoolWaitNanos += b.PoolWaitNanos
}

// modelMS prices the counted page transfers on the paper's 1998 disk.
func (a ioCounts) modelMS() float64 {
	m := cubetree.Disk1998
	d := time.Duration(a.SeqReads)*m.SeqRead + time.Duration(a.RandReads)*m.RandRead +
		time.Duration(a.SeqWrites)*m.SeqWrite + time.Duration(a.RandWrites)*m.RandWrite
	return float64(d) / float64(time.Millisecond)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histSnap is the part of a latency histogram snapshot the benchmark reads.
type histSnap struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	P99   int64  `json:"p99"`
}

// metricsSnap decodes an observer registry snapshot: a daemon's
// /debug/metrics body, or the in-process registry marshalled the same way.
type metricsSnap struct {
	// Engines counts the merged snapshots that carried page I/O: the
	// processes that run an engine (a coordinator does not).
	Engines         int                 `json:"-"`
	IO              *ioCounts           `json:"io"`
	Counters        map[string]uint64   `json:"counters"`
	Histograms      map[string]histSnap `json:"histograms"`
	CounterFamilies map[string]struct {
		Values []struct {
			Value float64 `json:"value"`
		} `json:"values"`
	} `json:"counter_families"`
}

// merge adds another process's snapshot: counts and sums add, p99 keeps the
// worse of the two.
func (m *metricsSnap) merge(o metricsSnap) {
	if o.IO != nil {
		if m.IO == nil {
			m.IO = &ioCounts{}
		}
		m.IO.add(*o.IO)
		m.Engines++
	}
	if m.Counters == nil {
		m.Counters = map[string]uint64{}
		m.Histograms = map[string]histSnap{}
	}
	for k, v := range o.Counters {
		m.Counters[k] += v
	}
	for k, v := range o.Histograms {
		h := m.Histograms[k]
		h.Count += v.Count
		h.Sum += v.Sum
		h.P99 = max(h.P99, v.P99)
		m.Histograms[k] = h
	}
	for k, v := range o.CounterFamilies {
		for _, lv := range v.Values {
			m.Counters[k] += uint64(lv.Value)
		}
	}
}

func (m metricsSnap) io() ioCounts {
	if m.IO == nil {
		return ioCounts{}
	}
	return *m.IO
}

// phaseSeconds is the time a named pipeline phase took between two
// snapshots. A cluster's shards run the phase side by side, so their summed
// time is divided by their number: the mean shard's time.
func phaseSeconds(after, before metricsSnap, phase string) float64 {
	sum := after.Histograms[phase+"_ns"].Sum - before.Histograms[phase+"_ns"].Sum
	return float64(sum) / 1e9 / float64(max(after.Engines, 1))
}

// --- order statistics -----------------------------------------------------------------

// percentile returns the q-quantile (0..1) of sorted values, nearest rank.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianFloat(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// --- process accounting ----------------------------------------------------------------

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 for every architecture Go supports.
const clockTick = 100

// cpuSeconds is user+system CPU of this process plus the live children.
func cpuSeconds(pids []int) float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	total := float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the name.
		f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
		if len(f) > 12 {
			u, _ := strconv.ParseFloat(f[11], 64)
			s, _ := strconv.ParseFloat(f[12], 64)
			total += (u + s) / clockTick
		}
	}
	return total
}

// peakRSSMB sums the high-water resident set of this process and the
// children.
func peakRSSMB(pids []int) float64 {
	var kb float64
	for _, pid := range append([]int{os.Getpid()}, pids...) {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				v, _ := strconv.ParseFloat(f[1], 64)
				kb += v
			}
		}
	}
	return kb / 1024
}

// memCounters is the slice of runtime.MemStats the proc.* metrics need.
type memCounters struct {
	mallocs uint64
	numGC   uint32
	pauses  [256]uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.NumGC, ms.PauseNs}
}

// maxPauseSince is the longest GC pause between an earlier reading and m.
func (m memCounters) maxPauseSince(before memCounters) uint64 {
	// pauses is a ring: collection number k sits at index (k-1) % 256.
	first := before.numGC
	if m.numGC-first > 256 {
		first = m.numGC - 256
	}
	var worst uint64
	for n := first; n < m.numGC; n++ {
		worst = max(worst, m.pauses[n%256])
	}
	return worst
}
