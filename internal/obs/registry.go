// Package obs is the observability layer of the Cubetree reproduction: a
// lock-free metrics registry (counters, gauges, log-bucketed latency
// histograms), lightweight tracing spans with a ring buffer of recent
// traces, a slow-query log, and HTTP debug handlers.
//
// The design goal is that instrumentation costs ~nothing when no sink is
// attached: every span method is nil-safe (a nil *Span or *Tracer is a
// no-op and allocates nothing), so instrumented code threads a possibly-nil
// span through unconditionally, and the hot metric paths are single atomic
// adds on pointers resolved once at registration time.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubetree/internal/pager"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. Registration (Counter, Gauge,
// Histogram, GaugeFunc) takes a mutex and is expected at setup time or at
// low frequency; the returned metric pointers are then updated lock-free on
// hot paths. All methods are safe for concurrent use and get-or-create, so
// two components naming the same metric share it.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	gaugeFns    map[string]func() int64
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
	stats       *pager.Stats
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		gaugeFns:    map[string]func() int64{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a callback evaluated at snapshot time — the natural
// shape for values owned elsewhere, like buffer-pool occupancy. Registering
// the same name again replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// AttachStats absorbs a pager.Stats into the registry: its counters appear
// in every snapshot under the "io" key, so the registry extends rather than
// duplicates the page-level accounting.
func (r *Registry) AttachStats(s *pager.Stats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = s
}

// Snapshot is a point-in-time copy of every metric, shaped for JSON.
type Snapshot struct {
	// TakenUnixNS stamps when the snapshot was captured (UnixNano). Every
	// /debug/metrics body carries it, and the history ring relies on it to
	// order samples that crossed a wire hop.
	TakenUnixNS int64                              `json:"taken_unix_ns,omitempty"`
	Counters    map[string]uint64                  `json:"counters,omitempty"`
	Gauges      map[string]int64                   `json:"gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot       `json:"histograms,omitempty"`
	CounterVecs map[string]FamilySnapshot          `json:"counter_families,omitempty"`
	GaugeVecs   map[string]FamilySnapshot          `json:"gauge_families,omitempty"`
	HistVecs    map[string]HistogramFamilySnapshot `json:"histogram_families,omitempty"`
	IO          *pager.StatsSnapshot               `json:"io,omitempty"`
}

// Snapshot captures every registered metric. Gauge callbacks run outside the
// registry lock (they may take their own locks, e.g. pool shards).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.TakenUnixNS = time.Now().UnixNano()
	r.mu.Lock()
	s.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]int64, len(r.gauges)+len(r.gaugeFns))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	cvecs := make(map[string]*CounterVec, len(r.counterVecs))
	for name, v := range r.counterVecs {
		cvecs[name] = v
	}
	gvecs := make(map[string]*GaugeVec, len(r.gaugeVecs))
	for name, v := range r.gaugeVecs {
		gvecs[name] = v
	}
	hvecs := make(map[string]*HistogramVec, len(r.histVecs))
	for name, v := range r.histVecs {
		hvecs[name] = v
	}
	stats := r.stats
	r.mu.Unlock()

	for name, fn := range fns {
		s.Gauges[name] = fn()
	}
	if len(cvecs) > 0 {
		s.CounterVecs = make(map[string]FamilySnapshot, len(cvecs))
		for name, v := range cvecs {
			s.CounterVecs[name] = v.Snapshot()
		}
	}
	if len(gvecs) > 0 {
		s.GaugeVecs = make(map[string]FamilySnapshot, len(gvecs))
		for name, v := range gvecs {
			s.GaugeVecs[name] = v.Snapshot()
		}
	}
	if len(hvecs) > 0 {
		s.HistVecs = make(map[string]HistogramFamilySnapshot, len(hvecs))
		for name, v := range hvecs {
			s.HistVecs[name] = v.Snapshot()
		}
	}
	if stats != nil {
		io := stats.Snapshot()
		s.IO = &io
	}
	return s
}

// Merge folds o into s as if both had been counted by one registry:
// counters and gauges add, and histograms merge bucket by bucket
// (MergeHistogramSnapshots). It is the fleet rollup: counters are monotone
// event counts and the gauges of interest (pool frames, inflight, points)
// are extensive quantities, so the sum reads as "the whole fleet did this
// much". Labelled families, IO and TakenUnixNS are left as they are — a
// labelled family has no meaningful cross-process sum. Nil maps in s are
// created as needed.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64, len(o.Counters))
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64, len(o.Gauges))
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot, len(o.Histograms))
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, h := range o.Histograms {
		s.Histograms[name] = MergeHistogramSnapshots(s.Histograms[name], h)
	}
}

// Names returns every registered metric name, sorted, for tests and docs.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.gaugeFns {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.counterVecs {
		names = append(names, n)
	}
	for n := range r.gaugeVecs {
		names = append(names, n)
	}
	for n := range r.histVecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
