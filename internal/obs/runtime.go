package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// processStart anchors process_start_time_unix_ns / process_uptime_seconds.
// Stamped at package init, which for a daemon is within milliseconds of exec.
var processStart = time.Now()

// ProcessStart returns when this process (strictly: the obs package) started.
func ProcessStart() time.Time { return processStart }

// runtimeSampleMinInterval bounds how often the runtime collector re-reads
// runtime state. runtime.ReadMemStats stops the world briefly, so one snapshot
// of the registry must trigger at most one read even though it evaluates a
// dozen go_* gauges — and back-to-back snapshots (e.g. the Prometheus endpoint
// scraped by two systems) reuse the cached sample.
const runtimeSampleMinInterval = time.Second

// runtimeSampler caches one coherent read of runtime.ReadMemStats plus the
// runtime/metrics scheduler-latency histogram, refreshed at most once per
// runtimeSampleMinInterval. All go_* gauges read through it, so they are
// mutually consistent within a sample.
type runtimeSampler struct {
	mu      sync.Mutex
	at      time.Time
	ms      runtime.MemStats
	samples []metrics.Sample

	schedP50NS int64
	schedP99NS int64
}

const schedLatencyMetric = "/sched/latencies:seconds"

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{
		samples: []metrics.Sample{{Name: schedLatencyMetric}},
	}
}

// read refreshes the cached sample if stale, then returns fn's pick from it.
// fn runs under the sampler lock, so it must only read fields.
func (s *runtimeSampler) read(fn func(*runtimeSampler) int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.at) >= runtimeSampleMinInterval {
		s.at = now
		runtime.ReadMemStats(&s.ms)
		metrics.Read(s.samples)
		if h := s.samples[0]; h.Value.Kind() == metrics.KindFloat64Histogram {
			s.schedP50NS = float64HistQuantileNS(h.Value.Float64Histogram(), 0.50)
			s.schedP99NS = float64HistQuantileNS(h.Value.Float64Histogram(), 0.99)
		}
	}
	return fn(s)
}

// float64HistQuantileNS extracts the q-quantile of a runtime/metrics
// Float64Histogram (seconds) and converts to nanoseconds, using each winning
// bucket's midpoint. Handles the ±Inf boundary buckets the runtime emits.
func float64HistQuantileNS(h *metrics.Float64Histogram, q float64) int64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			// Bucket i spans Buckets[i] .. Buckets[i+1]; the runtime pads the
			// boundary slice with ±Inf sentinels, which collapse to the finite
			// neighbor so the midpoint stays meaningful.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) || lo < 0 {
				lo = 0
			}
			if math.IsInf(hi, +1) {
				hi = lo
			}
			return int64((lo + hi) / 2 * float64(time.Second))
		}
	}
	return 0
}

// EnableRuntimeMetrics registers the go_* gauge family on r: heap and stack
// footprint, GC cycle/pause accounting, goroutine and scheduler state. The
// values are evaluated lazily at snapshot time through a shared cached sampler
// (one ReadMemStats per snapshot, at most one per second), so enabling the
// collector adds zero work to query hot paths. Safe to call more than once;
// later calls re-register equivalent callbacks.
func EnableRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	s := newRuntimeSampler()
	r.GaugeFunc("go_goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_gomaxprocs", func() int64 { return int64(runtime.GOMAXPROCS(0)) })
	r.GaugeFunc("go_heap_alloc_bytes", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.HeapAlloc) })
	})
	r.GaugeFunc("go_heap_sys_bytes", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.HeapSys) })
	})
	r.GaugeFunc("go_heap_inuse_bytes", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.HeapInuse) })
	})
	r.GaugeFunc("go_heap_objects", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.HeapObjects) })
	})
	r.GaugeFunc("go_stack_inuse_bytes", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.StackInuse) })
	})
	r.GaugeFunc("go_next_gc_bytes", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.NextGC) })
	})
	r.GaugeFunc("go_gc_cycles_total", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.NumGC) })
	})
	r.GaugeFunc("go_gc_pause_total_ns", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return int64(s.ms.PauseTotalNs) })
	})
	r.GaugeFunc("go_gc_pause_last_ns", func() int64 {
		return s.read(func(s *runtimeSampler) int64 {
			if s.ms.NumGC == 0 {
				return 0
			}
			return int64(s.ms.PauseNs[(s.ms.NumGC+255)%256])
		})
	})
	r.GaugeFunc("go_sched_latency_p50_ns", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return s.schedP50NS })
	})
	r.GaugeFunc("go_sched_latency_p99_ns", func() int64 {
		return s.read(func(s *runtimeSampler) int64 { return s.schedP99NS })
	})
}

// BuildInfo labels the build_info gauge: Prometheus convention is a
// constant-1 gauge whose labels carry the identity of the running binary.
type BuildInfo struct {
	GoVersion    string // runtime.Version()
	PackFormat   string // the written leaf format, rtree.PackFormat
	WireProtocol string // dist wire protocol version, e.g. "1"
}

// RegisterBuildInfo publishes the build_info family (exposed to Prometheus as
// cubetree_build_info) plus process start-time and uptime gauges. The caller
// supplies the labels so obs does not need to import the packages that own
// them (the dist wire version would be an import cycle from here).
func RegisterBuildInfo(r *Registry, bi BuildInfo) {
	if r == nil {
		return
	}
	r.GaugeVec("build_info", "go_version", "pack_format", "wire_protocol").
		With(bi.GoVersion, bi.PackFormat, bi.WireProtocol).Set(1)
	r.Gauge("process_start_time_unix_ns").Set(processStart.UnixNano())
	r.GaugeFunc("process_uptime_seconds", func() int64 {
		return int64(time.Since(processStart).Seconds())
	})
}
