// Package server is the production front door over a Cubetree warehouse: an
// HTTP API that accepts the internal/sqlish dialect and is robust by
// construction. Every request passes, in order, a draining check, a
// per-client token-bucket rate limit, a body-size limit, the SQL parser,
// and a semaphore-gated admission queue with a bounded deadline-aware wait;
// admitted queries run under a per-request timeout whose cancellation
// actually stops the leaf scan. Results are cached keyed on (generation,
// normalized statement), so the warehouse's atomic generation swap
// invalidates the cache for free. Shedding is explicit: 429 or 503 with an
// honest Retry-After, never an unbounded queue, never a panic escaping as a
// torn response.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubetree"
	"cubetree/internal/core"
	"cubetree/internal/cube"
	"cubetree/internal/dist"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/sqlish"
	"cubetree/internal/workload"
)

// Store is the warehouse surface the server needs; *cubetree.Warehouse and
// *dist.Coordinator implement it. Tests substitute fakes with controllable
// latency.
type Store interface {
	// QueryProfiledCtx answers one query under ctx, filling a non-nil prof
	// with an EXPLAIN-ANALYZE-style execution profile.
	QueryProfiledCtx(ctx context.Context, q workload.Query, prof *workload.QueryProfile) ([]workload.Row, error)
	QueryBatchCtx(ctx context.Context, qs []workload.Query, parallelism int) ([][]workload.Row, error)
	Generation() int
	Views() []lattice.View
	Domains() map[lattice.Attr]int64
	Schema() []lattice.Agg
	Update(rows cube.RowIter) error
}

// HealthStatus is /healthz's body. The endpoint always answers 200 — it is
// liveness — but the body distinguishes a healthy process from one burning
// an SLO ("degraded", with the violated objective names).
type HealthStatus struct {
	Status     string   `json:"status"` // "ok" | "degraded"
	Generation int      `json:"generation"`
	Draining   bool     `json:"draining,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// Config tunes the server. The zero value of every field has a production
// default; only Store is required.
type Config struct {
	// Store is the warehouse being served. Required.
	Store Store

	// MaxInFlight caps concurrently executing requests (default 16).
	MaxInFlight int
	// MaxQueue caps requests parked waiting for a slot (default
	// 4*MaxInFlight). Arrivals beyond slots+queue are shed with 429.
	MaxQueue int
	// QueueWait bounds how long one request waits for a slot before being
	// shed with 429 (default 1s).
	QueueWait time.Duration
	// RequestTimeout bounds one request's execution after admission
	// (default 10s). A request's timeout_ms can lower it, never raise it.
	RequestTimeout time.Duration
	// RatePerSec is the per-client token refill rate; 0 disables rate
	// limiting. RateBurst is the bucket size (default 2*RatePerSec, min 1).
	RatePerSec float64
	RateBurst  int
	// MaxBodyBytes caps a /query body (default 1 MiB); larger bodies get
	// 413. MaxRefreshBytes caps an /admin/refresh body (default 1 GiB).
	MaxBodyBytes    int64
	MaxRefreshBytes int64
	// CacheEntries caps the result cache (default 1024); negative disables
	// caching.
	CacheEntries int
	// BatchParallelism is the worker count for one request's statement
	// batch (default 4, capped by MaxInFlight intent: batches share the
	// single admission slot they were granted).
	BatchParallelism int

	// Obs, when set, registers the server_* metric families on its
	// registry and counts every admission decision. Optional.
	Obs *obs.Observer
	// SLO, when set, feeds /healthz: burning objectives degrade the health
	// body to {"status":"degraded","violations":[...]} while keeping the
	// 200 code — /healthz is liveness, and a process serving slow queries
	// is alive. Optional.
	SLO *obs.SLOTracker
	// Debug, when set, is mounted at /debug/ so one port serves queries,
	// the debug endpoints, and Prometheus exposition. Optional.
	Debug http.Handler
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RateBurst <= 0 {
		cfg.RateBurst = int(2 * cfg.RatePerSec)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxRefreshBytes <= 0 {
		cfg.MaxRefreshBytes = 1 << 30
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.BatchParallelism <= 0 {
		cfg.BatchParallelism = 4
	}
	return cfg
}

// metrics are the server_* families; every field is nil (and so a no-op)
// when no observer is configured.
type metrics struct {
	requests    *obs.Counter
	admitted    *obs.Counter
	shed        *obs.CounterVec
	queueWait   *obs.Histogram
	latency     *obs.Histogram
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	panics      *obs.Counter
	inflight    *obs.Gauge
	refreshes   *obs.Counter
}

// Server is the hardened HTTP front door; see the package comment for the
// request lifecycle. Create with New, serve Handler(), stop with Drain.
type Server struct {
	cfg     Config
	store   Store
	schema  lattice.Schema // the store's measure schema, fixed for its life
	gate    *gate
	limiter *limiter
	cache   *resultCache
	mux     *http.ServeMux
	m       metrics

	// draining rejects new work; inflight counts admitted-or-deciding
	// requests so Drain can wait for exactly the work the server accepted.
	draining atomic.Bool
	inflight atomic.Int64

	// refreshMu serializes refreshes: the engine supports one Update at a
	// time (queries keep flowing against the old generation).
	refreshMu sync.Mutex
}

// New builds a Server from cfg. It panics if cfg.Store is nil — that is a
// wiring bug, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		schema:  cfg.Store.Schema(),
		gate:    newGate(cfg.MaxInFlight, cfg.MaxQueue),
		limiter: newLimiter(cfg.RatePerSec, cfg.RateBurst),
		cache:   newResultCache(cfg.CacheEntries),
	}
	if o := cfg.Obs; o != nil {
		r := o.Registry
		s.m = metrics{
			requests:    r.Counter("server_requests_total"),
			admitted:    r.Counter("server_admitted_total"),
			shed:        r.CounterVec("server_shed_total", "reason"),
			queueWait:   r.Histogram("server_queue_wait_ns"),
			latency:     r.Histogram("server_request_latency_ns"),
			cacheHits:   r.Counter("server_cache_hits_total"),
			cacheMisses: r.Counter("server_cache_misses_total"),
			panics:      r.Counter("server_panics_total"),
			inflight:    r.Gauge("server_inflight"),
			refreshes:   r.Counter("server_refresh_total"),
		}
		r.GaugeFunc("server_queue_depth", s.gate.depth)
		r.GaugeFunc("server_slots_in_use", s.gate.inUse)
		r.GaugeFunc("server_cache_entries", func() int64 { return int64(s.cache.len()) })
		r.GaugeFunc("server_draining", func() int64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.recovered(s.handleQuery))
	mux.HandleFunc("/views", s.recovered(s.handleViews))
	mux.HandleFunc("/admin/refresh", s.recovered(s.handleRefresh))
	// /healthz is liveness with content: always 200 (a process burning its
	// latency budget is degraded, not dead — restarting it would only make
	// things worse), but the body is structured so monitors can assert on
	// status and surface the burning objectives.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := HealthStatus{Status: "ok", Generation: s.store.Generation(), Draining: s.draining.Load()}
		if v := s.cfg.SLO.Violations(); len(v) > 0 {
			st.Status = "degraded"
			st.Violations = v
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ready"}` + "\n"))
	})
	if cfg.Debug != nil {
		mux.Handle("/debug/", cfg.Debug)
	}
	mux.HandleFunc("/", s.recovered(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no endpoint %s", r.URL.Path), 0)
	}))
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain switches the server to draining — /query and /admin/refresh shed
// with 503, /readyz reports not-ready so load balancers stop routing here —
// and waits until every already-accepted request has completed or ctx
// expires. Drain is idempotent; the daemon calls it on SIGTERM before
// shutting the listener down, and a refresh orchestrator can use the same
// mechanism to quiesce writers.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// recovered wraps a handler with panic recovery: a panicking request is
// counted and answered with a structured 500 instead of tearing down the
// connection (or, under http.Server, killing nothing but still losing the
// response).
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.m.panics.Inc()
				writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("panic: %v", v), 0)
			}
		}()
		h(w, r)
	}
}

// begin registers one unit of accepted work for Drain accounting. It
// increments before checking the drain flag, so Drain can never observe a
// zero counter while a request that passed the check is still untracked;
// ok=false means the server is draining and the request must be shed.
func (s *Server) begin() (end func(), ok bool) {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Add(-1)
		return nil, false
	}
	return func() { s.inflight.Add(-1) }, true
}

// clientKey extracts the rate-limit key: the remote IP without the port, so
// one misbehaving host shares a bucket across its connections.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethod, "POST the SQL (raw text or JSON envelope) to /query", 0)
		return
	}
	end, ok := s.begin()
	if !ok {
		s.m.shed.With("draining").Inc()
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", time.Second)
		return
	}
	defer end()
	start := time.Now()
	defer func() { s.m.latency.ObserveDuration(time.Since(start)) }()

	if ok, retry := s.limiter.take(clientKey(r), start); !ok {
		s.m.shed.With("rate").Inc()
		writeError(w, http.StatusTooManyRequests, CodeRateLimited,
			"per-client rate limit exceeded", retry)
		return
	}

	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes), 0)
		return
	}
	req, err := decodeQueryRequest(*body)
	putBuf(body) // the decoded request copied what it keeps
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}

	// Trace context: honor the caller's X-Trace-Id so a trace started
	// upstream threads through here; otherwise mint one at this front door
	// when anything downstream will record it (an observer is attached) or
	// the caller asked for a profile. The ID is echoed in the response
	// header and body so the caller can filter /debug/traces on any
	// process that touched the request.
	tid := strings.TrimSpace(r.Header.Get("X-Trace-Id"))
	if tid == "" && (s.cfg.Obs != nil || req.Profile) {
		tid = obs.NewTraceID()
	}
	if tid != "" {
		w.Header().Set("X-Trace-Id", tid)
	}

	// Parse and resolve every statement before admission: bad SQL, a
	// MIN/MAX the warehouse does not store included, never takes a slot.
	stmts := make([]statement, 0, 1) // on the stack unless it is a batch
	var kb [256]byte
	for _, sql := range req.statements() {
		st, err := sqlish.Parse(sql)
		var proj sqlish.Projection
		if err == nil {
			proj, err = st.Resolve(s.schema)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadSQL, err.Error(), 0)
			return
		}
		stmts = append(stmts, statement{st: st, proj: proj, key: string(appendCanonical(kb[:0], st))})
	}

	// Admission: one slot per request, however many statements it carries;
	// the bounded wait keeps a saturated server's queue from growing
	// without limit.
	release, waited, err := s.gate.acquire(r.Context(), s.cfg.QueueWait)
	s.m.queueWait.ObserveDuration(waited)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.m.shed.With("queue_full").Inc()
			writeError(w, http.StatusTooManyRequests, CodeOverloaded,
				"admission queue full", s.cfg.QueueWait)
		case errors.Is(err, errQueueTimeout):
			s.m.shed.With("queue_timeout").Inc()
			writeError(w, http.StatusTooManyRequests, CodeOverloaded,
				fmt.Sprintf("no execution slot within %v", s.cfg.QueueWait), s.cfg.QueueWait)
		default: // client hung up while queued
			s.m.shed.With("client_gone").Inc()
		}
		return
	}
	defer release()
	s.m.admitted.Inc()
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = obs.WithTraceID(ctx, tid)

	buf := getBuf()
	defer putBuf(buf)
	b, err := s.answer(ctx, *buf, stmts, req.Profile, tid)
	if err != nil {
		status, code, retry := s.mapQueryError(ctx, err)
		if status == 0 {
			return // client gone; nobody is listening for a response
		}
		writeError(w, status, code, err.Error(), retry)
		return
	}
	*buf = b
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// statement is one statement of a /query request: parsed, resolved and keyed
// before admission, then answered from the cache (frag) or the engine.
type statement struct {
	st   *sqlish.Statement
	proj sqlish.Projection
	key  string // canonical form; see appendCanonical
	frag []byte
	rows []workload.Row
	prof *workload.QueryProfile
}

// answer answers each statement, consulting the result cache first, and
// appends the QueryResponse body to b. Cache keys carry the generation read
// before execution; a refresh landing mid-request flips the generation, in
// which case results are returned but not cached (each individual answer is
// still exactly one generation's, the library QueryBatchCtx guarantee).
//
// When profile is set, cache misses execute one at a time — a profile
// describes one statement's scan, so profiled requests trade batch
// parallelism for the breakdown — and the results are not cached (a cached
// answer's profile would describe a scan that never happened for the next
// caller). Cache hits under profiling report disposition "hit" with zero
// scan counters.
func (s *Server) answer(ctx context.Context, b []byte, stmts []statement, profile bool, tid string) ([]byte, error) {
	gen := s.store.Generation()
	misses := make([]int, 0, 1)
	for i := range stmts {
		if frag, ok := s.cache.get(cacheKey{generation: gen, statement: stmts[i].key}); ok {
			s.m.cacheHits.Inc()
			stmts[i].frag = frag
			continue
		}
		s.m.cacheMisses.Inc()
		misses = append(misses, i)
	}

	if profile || len(misses) == 1 {
		for _, i := range misses {
			if profile {
				stmts[i].prof = &workload.QueryProfile{TraceID: tid, Cache: "miss"}
			}
			rows, err := s.store.QueryProfiledCtx(ctx, stmts[i].st.Query, stmts[i].prof)
			if err != nil {
				return nil, err
			}
			stmts[i].rows = rows
		}
	} else if len(misses) > 1 {
		qs := make([]workload.Query, len(misses))
		for j, i := range misses {
			qs[j] = stmts[i].st.Query
		}
		rowSets, err := s.store.QueryBatchCtx(ctx, qs, s.cfg.BatchParallelism)
		if err != nil {
			return nil, err
		}
		for j, i := range misses {
			stmts[i].rows = rowSets[j]
		}
	}

	// The body, field for field in QueryResponse and StatementResult order.
	cacheable := !profile && s.store.Generation() == gen
	b = strconv.AppendInt(append(b, `{"generation":`...), int64(gen), 10)
	b = append(b, `,"results":[`...)
	for i := range stmts {
		st := &stmts[i]
		if i > 0 {
			b = append(b, ',')
		}
		if st.frag != nil {
			b = append(append(b, st.frag...), `,"cached":true`...)
			if profile {
				st.prof = &workload.QueryProfile{Cache: "hit", TraceID: tid}
			}
		} else {
			start := len(b)
			b = appendResult(b, st.st, st.proj, st.rows)
			if cacheable {
				s.cache.put(cacheKey{generation: gen, statement: st.key}, bytes.Clone(b[start:]))
			}
		}
		if st.prof != nil {
			pj, err := json.Marshal(st.prof)
			if err != nil {
				return nil, err
			}
			b = append(append(b, `,"profile":`...), pj...)
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if tid != "" {
		b = appendJSONString(append(b, `,"trace_id":`...), tid)
	}
	return append(b, "}\n"...), nil
}

// mapQueryError classifies an execution error into a structured response.
// status 0 means the client is gone and no response should be written.
func (s *Server) mapQueryError(ctx context.Context, err error) (status int, code string, retryAfter time.Duration) {
	var ex *pager.ExhaustedError
	var se *dist.ShardError
	switch {
	case errors.As(err, &ex):
		// The pool's wait bound already passed without a frame freeing up;
		// retrying sooner than another full bound would likely re-fail.
		s.m.shed.With("pool_exhausted").Inc()
		return http.StatusServiceUnavailable, CodePoolExhausted, ex.Wait
	case errors.Is(err, pager.ErrPoolExhausted):
		s.m.shed.With("pool_exhausted").Inc()
		return http.StatusServiceUnavailable, CodePoolExhausted, pager.DefaultExhaustionWait
	case errors.Is(err, core.ErrNoPlacement):
		return http.StatusBadRequest, CodeUnknownView, 0
	case errors.As(err, &se):
		// A shard stayed unreachable through the coordinator's own retry
		// budget; the whole request is retryable once the worker returns.
		s.m.shed.With("shard_unavailable").Inc()
		retryAfter = se.RetryAfter
		if retryAfter <= 0 {
			retryAfter = time.Second
		}
		return http.StatusServiceUnavailable, CodeShardDown, retryAfter
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadline, 0
	case errors.Is(err, context.Canceled):
		if ctx.Err() != nil {
			return 0, "", 0 // request context cancelled: client disconnected
		}
		return http.StatusServiceUnavailable, CodeCanceled, 0
	default:
		return http.StatusInternalServerError, CodeInternal, 0
	}
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethod, "GET /views", 0)
		return
	}
	resp := ViewsResponse{
		Generation: s.store.Generation(),
		Domains:    map[string]int64{},
	}
	for _, v := range s.store.Views() {
		vd := ViewDef{Name: v.Name, Attrs: []string{}}
		for _, a := range v.Attrs {
			vd.Attrs = append(vd.Attrs, string(a))
		}
		resp.Views = append(resp.Views, vd)
	}
	for a, d := range s.store.Domains() {
		resp.Domains[string(a)] = d
	}
	resp.Measures = lattice.Schema(s.store.Schema()).Strings()
	writeJSON(w, resp)
}

// handleRefresh applies a CSV delta (the dbgen/ctupdate format: header row
// naming attributes, ?measure= picking the measure column) as one warehouse
// Update. One refresh runs at a time; queries keep flowing against the old
// generation until the atomic swap, which also invalidates the result
// cache by construction.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethod, "POST CSV fact rows to /admin/refresh", 0)
		return
	}
	end, ok := s.begin()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
		return
	}
	defer end()
	if !s.refreshMu.TryLock() {
		writeError(w, http.StatusConflict, CodeRefreshBusy, "another refresh is in flight", 0)
		return
	}
	defer s.refreshMu.Unlock()

	measure := r.URL.Query().Get("measure")
	if measure == "" {
		measure = "quantity"
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRefreshBytes)
	src, err := cubetree.CSVRows(r.Body, measure)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	counted := &countedRows{inner: src}
	if err := s.store.Update(counted); err != nil {
		// A fault in the delta fails Update before anything commits.
		if src.Err() != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("bad CSV delta: %v", src.Err()), 0)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
		return
	}
	s.m.refreshes.Inc()
	writeJSON(w, RefreshResponse{Generation: s.store.Generation(), Rows: counted.n})
}

// countedRows counts fact rows as they stream through, for the refresh
// response. It forwards Err, so the store sees a stream that ended on a bad
// record as failed rather than finished.
type countedRows struct {
	inner *cubetree.CSVSource
	n     int64
}

func (c *countedRows) Next() bool {
	if c.inner.Next() {
		c.n++
		return true
	}
	return false
}
func (c *countedRows) Value(a lattice.Attr) (int64, error) { return c.inner.Value(a) }
func (c *countedRows) Measure() int64                      { return c.inner.Measure() }
func (c *countedRows) Err() error                          { return c.inner.Err() }

// appendCanonical appends a parsed statement's cache-key form to b:
// projection labels, group-by node, equality and range predicates, and the
// limit. Labels and attribute names are identifiers or agg(identifier), so
// the separators cannot be confused with their contents. Two SQL spellings
// that parse identically (case, whitespace, clause order slack) share one
// key.
func appendCanonical(b []byte, st *sqlish.Statement) []byte {
	for _, c := range st.Columns {
		b = append(append(b, c.Label...), ',')
	}
	b = append(b, '|')
	for _, a := range st.Query.Node {
		b = append(append(b, a...), ',')
	}
	b = append(b, '|')
	for _, p := range st.Query.Fixed {
		b = strconv.AppendInt(append(append(b, p.Attr...), '='), p.Value, 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, r := range st.Query.Ranges {
		b = strconv.AppendInt(append(append(b, r.Attr...), '='), r.Lo, 10)
		b = strconv.AppendInt(append(b, ':'), r.Hi, 10)
		b = append(b, ',')
	}
	if st.HasLimit {
		b = strconv.AppendInt(append(b, "|limit="...), int64(st.Limit), 10)
	}
	return b
}

// readBody reads at most max bytes of r's body into a pooled buffer the
// caller returns with putBuf; an over-limit body is the only error surfaced
// (client disconnects mid-body produce a best-effort empty read that fails
// SQL parsing downstream).
func readBody(w http.ResponseWriter, r *http.Request, max int64) (*[]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, max)
	p := getBuf()
	buf := bytes.NewBuffer(*p)
	_, err := buf.ReadFrom(r.Body)
	*p = buf.Bytes()
	if err != nil {
		putBuf(p)
		return nil, err
	}
	return p, nil
}

// writeJSON renders one success response. The value is encoded to a buffer
// first so an encoding failure cannot emit half a body after a 200.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
