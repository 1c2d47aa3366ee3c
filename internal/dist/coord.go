package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/workload"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// Shards lists the worker addresses; order fixes shard indexes.
	Shards []string
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// Retries is the number of times a transiently failed request (connect
	// refused, broken conn, shard overloaded) is retried per shard before
	// the failure surfaces as a *ShardError (default 4).
	Retries int
	// CommitRetries is the larger budget for commit frames: by commit time
	// every shard has the new generation on disk, so stragglers are worth
	// chasing much harder than queries (default 10).
	CommitRetries int
	// RetryBackoff is the initial retry delay, doubling per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// RequestTimeout bounds one request attempt's network I/O when the
	// caller's context has no deadline, so a hung worker can never hang a
	// scatter (default 30s). Refresh prepares, which legitimately run long,
	// use PrepareTimeout instead.
	RequestTimeout time.Duration
	// PrepareTimeout bounds a refresh prepare attempt (default 10m).
	PrepareTimeout time.Duration
	// Obs attaches the dist_* metric families; may be nil.
	Obs *obs.Observer
}

func (cfg *CoordinatorConfig) setDefaults() {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 4
	}
	if cfg.CommitRetries <= 0 {
		cfg.CommitRetries = 10
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.PrepareTimeout <= 0 {
		cfg.PrepareTimeout = 10 * time.Minute
	}
}

// ShardError is a structured failure of one shard: which address, how many
// attempts were made, and how long a client should wait before retrying the
// whole request. The HTTP front door maps it to a 503 with a Retry-After
// hint, so worker loss surfaces as a typed, retryable error — never a hang
// or a silently partial result.
type ShardError struct {
	Addr       string
	Code       string
	Attempts   int
	RetryAfter time.Duration
	Err        error
}

func (e *ShardError) Error() string {
	code := e.Code
	if code == "" {
		code = "unavailable"
	}
	return fmt.Sprintf("dist: shard %s %s after %d attempt(s): %v (retry after %s)",
		e.Addr, code, e.Attempts, e.Err, e.RetryAfter)
}

func (e *ShardError) Unwrap() error { return e.Err }

// shardConn is one pooled connection to a worker. buf holds the reply being
// read and col is the row-set decoder's column scratch; both are reused from
// one exchange to the next, so a steady connection allocates only the rows it
// hands back.
type shardConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
	col []int64
}

func (sc *shardConn) close() { sc.c.Close() }

// do performs one request/reply exchange under the deadline: req is a whole
// encoded frame, written in one piece, and the reply's payload is valid until
// the connection's next exchange.
func (sc *shardConn) do(req []byte, deadline time.Time) (Frame, error) {
	if err := sc.c.SetDeadline(deadline); err != nil {
		return Frame{}, err
	}
	if _, err := sc.c.Write(req); err != nil {
		return Frame{}, err
	}
	reply, buf, err := readFrame(sc.br, sc.buf)
	sc.buf = keep(buf)
	if err != nil {
		return Frame{}, err
	}
	if id := binary.BigEndian.Uint64(req[6:14]); reply.ID != id {
		return Frame{}, fmt.Errorf("dist: reply id %d for request %d", reply.ID, id)
	}
	return reply, nil
}

// shard is the coordinator's live state for one worker.
type shard struct {
	addr       string
	generation atomic.Int64
	inflight   atomic.Int64
	lastErr    atomic.Pointer[string]
	latency    *obs.Histogram
	// inflightGauge is this shard's child of dist_shard_inflight, resolved
	// once like latency so a scatter leg pays no family lookup.
	inflightGauge *obs.FloatGauge

	mu   sync.Mutex
	idle []*shardConn
}

func (sh *shard) get(dialTimeout time.Duration) (*shardConn, error) {
	sh.mu.Lock()
	if n := len(sh.idle); n > 0 {
		sc := sh.idle[n-1]
		sh.idle = sh.idle[:n-1]
		sh.mu.Unlock()
		return sc, nil
	}
	sh.mu.Unlock()
	c, err := net.DialTimeout("tcp", sh.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &shardConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (sh *shard) put(sc *shardConn) {
	sc.c.SetDeadline(time.Time{})
	sh.mu.Lock()
	sh.idle = append(sh.idle, sc)
	sh.mu.Unlock()
}

func (sh *shard) closeIdle() {
	sh.mu.Lock()
	idle := sh.idle
	sh.idle = nil
	sh.mu.Unlock()
	for _, sc := range idle {
		sc.close()
	}
}

func (sh *shard) noteError(err error) {
	msg := err.Error()
	sh.lastErr.Store(&msg)
}

// Coordinator scatters queries across shards and folds the partial
// aggregates; it satisfies the same store surface as a local warehouse, so
// the existing HTTP front door serves a cluster unchanged.
type Coordinator struct {
	cfg    CoordinatorConfig
	shards []*shard

	views   []lattice.View
	domains map[lattice.Attr]int64
	schema  lattice.Schema

	// qmu orders scatters against refresh commits: every query holds the
	// read lock for its whole scatter, and the commit fan-out holds the
	// write lock. The prepare phase — the long part — runs outside the
	// lock, so queries only ever block for the brief commit window, and no
	// scatter can observe some shards before a commit and others after:
	// results are old-or-new, never mixed.
	qmu sync.RWMutex

	// lastID numbers requests. One scatter sends the same encoded frame, ID
	// included, down every leg; a connection still never sees an ID twice in
	// a row, which is all the reply check needs.
	lastID atomic.Uint64

	m coordMetrics
}

type coordMetrics struct {
	scatters   *obs.Counter
	mixed      *obs.Counter
	retries    *obs.CounterVec
	errors     *obs.CounterVec
	inflight   *obs.GaugeVec
	stragglers *obs.Gauge
	refreshes  *obs.Counter
	commitNS   *obs.Histogram
	prepareNS  *obs.Histogram
	latency    *obs.HistogramVec
}

// NewCoordinator connects to every shard, retrieves and cross-checks their
// catalogs (views, domains, and measure schema must agree), and returns a
// query-ready coordinator. Connection failures are retried with backoff, so
// workers may still be coming up.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.setDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("dist: no shards configured")
	}
	c := &Coordinator{cfg: cfg}
	var reg *obs.Registry
	if cfg.Obs != nil {
		reg = cfg.Obs.Registry
	}
	c.m = coordMetrics{
		scatters:   reg.Counter("dist_scatters_total"),
		mixed:      reg.Counter("dist_mixed_generation_total"),
		retries:    reg.CounterVec("dist_shard_retries_total", "shard"),
		errors:     reg.CounterVec("dist_shard_errors_total", "shard"),
		inflight:   reg.GaugeVec("dist_shard_inflight", "shard"),
		stragglers: reg.Gauge("dist_straggler_shards"),
		refreshes:  reg.Counter("dist_refresh_total"),
		commitNS:   reg.Histogram("dist_refresh_commit_ns"),
		prepareNS:  reg.Histogram("dist_refresh_prepare_ns"),
		latency:    reg.HistogramVec("dist_shard_latency_ns", "shard"),
	}
	for _, addr := range cfg.Shards {
		sh := &shard{addr: addr}
		if sh.latency = c.m.latency.With(addr); sh.latency == nil {
			sh.latency = &obs.Histogram{}
		}
		sh.inflightGauge = c.m.inflight.With(addr)
		c.shards = append(c.shards, sh)
	}
	reg.Gauge("dist_fanout_shards").Set(int64(len(c.shards)))
	reg.GaugeFunc("dist_generation", func() int64 { return int64(c.Generation()) })

	for i, sh := range c.shards {
		var sp statsReplyPayload
		if err := c.control(context.Background(), sh, FrameStats, struct{}{}, FrameStatsReply, &sp,
			cfg.Retries, cfg.RequestTimeout); err != nil {
			c.Close()
			return nil, err
		}
		if err := c.adoptStats(i, sh, sp); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// adoptStats records shard 0's catalog as the cluster's and verifies every
// other shard matches it.
func (c *Coordinator) adoptStats(i int, sh *shard, sp statsReplyPayload) error {
	sh.generation.Store(int64(sp.Generation))
	schema, err := lattice.ParseSchema(sp.Schema)
	if err != nil {
		return fmt.Errorf("dist: shard %s: %w", sh.addr, err)
	}
	var views []lattice.View
	for _, wv := range sp.Views {
		v := lattice.View{Name: wv.Name}
		for _, a := range wv.Attrs {
			v.Attrs = append(v.Attrs, lattice.Attr(a))
		}
		views = append(views, v)
	}
	domains := make(map[lattice.Attr]int64, len(sp.Domains))
	for a, d := range sp.Domains {
		domains[lattice.Attr(a)] = d
	}
	if i == 0 {
		c.schema, c.views, c.domains = schema, views, domains
		return nil
	}
	if !schema.Equal(c.schema) {
		return fmt.Errorf("dist: shard %s schema %v differs from %v", sh.addr, schema.Strings(), c.schema.Strings())
	}
	if keysOf(views) != keysOf(c.views) {
		return fmt.Errorf("dist: shard %s view set differs", sh.addr)
	}
	if len(domains) != len(c.domains) {
		return fmt.Errorf("dist: shard %s domain set differs", sh.addr)
	}
	for a, d := range c.domains {
		if domains[a] != d {
			return fmt.Errorf("dist: shard %s domain %s=%d differs from %d", sh.addr, a, domains[a], d)
		}
	}
	return nil
}

func keysOf(views []lattice.View) string {
	keys := make([]string, len(views))
	for i, v := range views {
		keys[i] = v.Key()
	}
	sort.Strings(keys)
	var out string
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

// Close drops every pooled connection. In-flight requests fail and are not
// retried usefully afterwards; Close is for shutdown.
func (c *Coordinator) Close() error {
	for _, sh := range c.shards {
		sh.closeIdle()
	}
	return nil
}

// roundTrip performs one request against one shard — req is a whole encoded
// frame — and hands the reply's payload to handle while it still holds the
// connection (the payload lives in the connection's buffer). Transient
// failures (connect errors, broken connections, retryable worker errors) are
// retried with exponential backoff up to budget retries; permanent worker
// errors, a peer of another protocol version and exhausted budgets return a
// *ShardError, and handle's own error is returned as it is. The first return
// is the number of attempts made, for per-shard profile/trace detail (it
// matches ShardError.Attempts on failure).
func (c *Coordinator) roundTrip(ctx context.Context, sh *shard, req []byte, want FrameType, budget int, attemptTimeout time.Duration, handle func(sc *shardConn, payload []byte) error) (int, error) {
	backoff := c.cfg.RetryBackoff
	fail := func(attempts int, code string, err error) (int, error) {
		c.m.errors.With(sh.addr).Inc()
		sh.noteError(err)
		return attempts, &ShardError{Addr: sh.addr, Code: code, Attempts: attempts,
			RetryAfter: backoff, Err: err}
	}
	var lastErr error
	for attempt := 0; attempt <= budget; attempt++ {
		if attempt > 0 {
			c.m.retries.With(sh.addr).Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return fail(attempt, "", context.Cause(ctx))
			}
			backoff *= 2
		}
		if ctx.Err() != nil {
			return fail(attempt, "", context.Cause(ctx))
		}
		sc, err := sh.get(c.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		deadline, ok := ctx.Deadline()
		if !ok {
			deadline = time.Now().Add(attemptTimeout)
		}
		reply, err := sc.do(req, deadline)
		if err != nil {
			sc.close()
			var ve *VersionError
			if errors.As(err, &ve) {
				return fail(attempt+1, ErrCodeBadProtocol, err)
			}
			lastErr = err
			continue
		}
		if reply.Type == FrameError {
			var ep errorPayload
			if err := unmarshalJSON(FrameError, reply.Payload, &ep); err != nil {
				sc.close()
				lastErr = err
				continue
			}
			if ep.Code == ErrCodeBadProtocol {
				sc.close() // the worker is closing its end too
				return fail(attempt+1, ep.Code, errors.New(ep.Msg))
			}
			sh.put(sc)
			if ep.Retryable {
				lastErr = fmt.Errorf("shard busy: %s (%s)", ep.Msg, ep.Code)
				if wait := time.Duration(ep.RetryAfterMS) * time.Millisecond; wait > backoff {
					backoff = wait
				}
				continue
			}
			return fail(attempt+1, ep.Code, errors.New(ep.Msg))
		}
		if reply.Type != want {
			sc.close()
			return fail(attempt+1, ErrCodeBadRequest,
				fmt.Errorf("dist: shard answered %s, want %s", reply.Type, want))
		}
		err = handle(sc, reply.Payload)
		sh.put(sc)
		sh.lastErr.Store(nil)
		return attempt + 1, err
	}
	return fail(budget+1, "", lastErr)
}

// control performs one exchange of JSON control frames: in is the request's
// payload, out receives the reply's.
func (c *Coordinator) control(ctx context.Context, sh *shard, t FrameType, in any, want FrameType, out any, budget int, attemptTimeout time.Duration) error {
	req, err := appendJSONFrame(nil, t, c.lastID.Add(1), in)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(ctx, sh, req, want, budget, attemptTimeout, func(_ *shardConn, payload []byte) error {
		return unmarshalJSON(want, payload, out)
	})
	return err
}

// scatter runs fn against every shard concurrently, records per-shard
// latency, and updates the straggler gauge. It returns each leg's elapsed
// wall time (indexed like c.shards, for profile/trace stitching) and the
// first shard error, if any.
func (c *Coordinator) scatter(fn func(i int, sh *shard) error) ([]time.Duration, error) {
	c.m.scatters.Inc()
	n := len(c.shards)
	errs := make([]error, n)
	elapsed := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sh.inflightGauge.Set(float64(sh.inflight.Add(1)))
			start := time.Now()
			errs[i] = fn(i, sh)
			elapsed[i] = time.Since(start)
			sh.latency.Observe(elapsed[i].Nanoseconds())
			sh.inflightGauge.Set(float64(sh.inflight.Add(-1)))
		}(i, sh)
	}
	wg.Wait()
	c.observeStragglers(elapsed)
	for _, err := range errs {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// stragglerAt reports whether leg i of a scatter was a straggler: more than
// twice the fastest leg's time and at least 5ms absolute (to ignore noise on
// tiny scatters). The same rule feeds the dist_straggler_shards gauge and the
// per-shard profile/trace verdicts, so the three always agree.
func stragglerAt(elapsed []time.Duration, i int) bool {
	fastest := time.Duration(-1)
	for _, d := range elapsed {
		if d > 0 && (fastest < 0 || d < fastest) {
			fastest = d
		}
	}
	return fastest > 0 && elapsed[i] > 2*fastest && elapsed[i] > 5*time.Millisecond
}

// observeStragglers counts straggler legs (per the stragglerAt rule) into the
// dist_straggler_shards gauge.
func (c *Coordinator) observeStragglers(elapsed []time.Duration) {
	var n int64
	for i := range elapsed {
		if stragglerAt(elapsed, i) {
			n++
		}
	}
	c.m.stragglers.Set(n)
}

// noteMixed checks that every shard answered a scatter at the same relative
// refresh epoch. Shards advance in lockstep (every refresh touches all of
// them), so differing generations within one scatter would mean the
// commit-window exclusion failed; the counter exists to make that
// invariant observable.
func (c *Coordinator) noteMixed(gens []int) {
	for _, g := range gens[1:] {
		if g != gens[0] {
			c.m.mixed.Inc()
			return
		}
	}
}

// Generation returns the coordinator's logical generation: the sum of the
// last-known shard generations. It is monotonic and advances whenever any
// shard commits, which is what cache invalidation needs.
func (c *Coordinator) Generation() int {
	var sum int64
	for _, sh := range c.shards {
		sum += sh.generation.Load()
	}
	return int(sum)
}

// Views returns the cluster's view definitions.
func (c *Coordinator) Views() []lattice.View { return append([]lattice.View(nil), c.views...) }

// Domains returns the attribute domain sizes.
func (c *Coordinator) Domains() map[lattice.Attr]int64 {
	out := make(map[lattice.Attr]int64, len(c.domains))
	for a, d := range c.domains {
		out[a] = d
	}
	return out
}

// Schema returns the cluster's measure schema.
func (c *Coordinator) Schema() []lattice.Agg { return append([]lattice.Agg(nil), c.schema...) }

// QueryProfiledCtx scatters one slice query to every shard and folds the
// partial aggregates into the same rows a single-process warehouse would
// return. When an observer is attached, the scatter is recorded as a root
// span with one child per shard leg (addr, attempts, generation, rows, wall
// time, straggler verdict), tagged with the trace ID carried by ctx — the
// coordinator-side half of a stitched distributed trace.
//
// A non-nil prof is filled too: the top-level scan counters are fleet-wide
// sums of the per-shard worker profiles, and prof.Shards carries each
// shard's round-trip detail (attempts, latency, straggler verdict) plus its
// worker-side breakdown. A shard whose reply carries no profile has a nil
// Profile in its ShardProfile entry, and the sums cover only the shards that
// reported. The per-leg bookkeeping slices (attempts, worker profiles, child
// spans) are allocated only when a span or profile will consume them, so the
// untraced, unprofiled path does no extra work.
func (c *Coordinator) QueryProfiledCtx(ctx context.Context, q workload.Query, prof *workload.QueryProfile) ([]workload.Row, error) {
	c.qmu.RLock()
	defer c.qmu.RUnlock()
	start := time.Now()
	tid := obs.TraceIDFrom(ctx)
	var sp *obs.Span
	if o := c.cfg.Obs; o != nil {
		sp = o.Tracer.StartRootShort("dist_query")
		sp.SetTraceID(tid)
		sp.SetStringer("query", q)
		if prof != nil {
			o.ProfiledQueries.Inc()
		}
	}
	n := len(c.shards)
	parts := make([][]workload.Row, n)
	gens := make([]int, n)
	var attempts []int
	var profs []*workload.QueryProfile
	var legs []*obs.Span
	if sp != nil || prof != nil {
		attempts = make([]int, n)
	}
	if prof != nil {
		profs = make([]*workload.QueryProfile, n)
	}
	if sp != nil {
		legs = make([]*obs.Span, n)
	}
	req, err := endFrame(appendQueryRequest(
		appendHeader(make([]byte, 0, 128), FrameQuery, c.lastID.Add(1), 0), q, tid, prof != nil))
	if err != nil {
		sp.End()
		return nil, err
	}
	elapsed, err := c.scatter(func(i int, sh *shard) error {
		var leg *obs.Span
		if sp != nil {
			leg = sp.Child("shard")
			leg.SetStr("addr", sh.addr)
			legs[i] = leg
		}
		var wprof *workload.QueryProfile
		att, rerr := c.roundTrip(ctx, sh, req, FrameRows, c.cfg.Retries, c.cfg.RequestTimeout,
			func(sc *shardConn, payload []byte) (derr error) {
				gens[i], parts[i], wprof, derr = decodeRowsReply(payload, &sc.col)
				return derr
			})
		if attempts != nil {
			attempts[i] = att
		}
		leg.SetInt("attempts", int64(att))
		if rerr != nil {
			leg.SetStr("error", rerr.Error())
			leg.End()
			return rerr
		}
		if profs != nil {
			profs[i] = wprof
		}
		sh.generation.Store(int64(gens[i]))
		leg.SetInt("generation", int64(gens[i]))
		leg.SetInt("rows", int64(len(parts[i])))
		if wprof != nil {
			leg.SetInt("points_scanned", wprof.PointsScanned)
			leg.SetInt("leaf_pages_read", wprof.LeafPagesRead)
			leg.SetInt("leaf_pages_skipped", wprof.LeafPagesSkipped)
		}
		leg.End()
		return nil
	})
	// Stitch the straggler verdicts (known only once every leg finished) and
	// the per-shard profile detail, even when a leg failed: a partial profile
	// of a failed scatter is still diagnostic.
	for i := range legs {
		if stragglerAt(elapsed, i) {
			legs[i].SetInt("straggler", 1)
		}
	}
	if prof != nil {
		prof.TraceID = tid
		for i, sh := range c.shards {
			prof.AddShard(workload.ShardProfile{
				Addr:       sh.addr,
				Attempts:   attempts[i],
				DurationNS: elapsed[i].Nanoseconds(),
				Generation: gens[i],
				Straggler:  stragglerAt(elapsed, i),
				Profile:    profs[i],
			})
		}
	}
	if err != nil {
		sp.SetStr("error", err.Error())
		sp.End()
		if prof != nil {
			prof.DurationNS = int64(time.Since(start))
		}
		return nil, err
	}
	c.noteMixed(gens)
	rows := workload.MergePartials(c.schema, parts)
	sp.SetInt("rows", int64(len(rows)))
	sp.End()
	if prof != nil {
		prof.RowsReturned = int64(len(rows))
		prof.DurationNS = int64(time.Since(start))
	}
	return rows, nil
}

// QueryBatchCtx scatters a whole batch to every shard in one frame each
// (amortizing the round trip) and folds results per query. parallelism is
// forwarded to the workers as their batch execution parallelism.
func (c *Coordinator) QueryBatchCtx(ctx context.Context, qs []workload.Query, parallelism int) ([][]workload.Row, error) {
	c.qmu.RLock()
	defer c.qmu.RUnlock()
	tid := obs.TraceIDFrom(ctx)
	var sp *obs.Span
	if o := c.cfg.Obs; o != nil {
		sp = o.Tracer.StartRootShort("dist_query_batch")
		sp.SetTraceID(tid)
		sp.SetInt("queries", int64(len(qs)))
	}
	parts := make([][][]workload.Row, len(c.shards))
	gens := make([]int, len(c.shards))
	req, err := endFrame(appendQueryBatchRequest(
		appendHeader(nil, FrameQueryBatch, c.lastID.Add(1), 0), qs, parallelism, tid))
	if err != nil {
		sp.End()
		return nil, err
	}
	_, err = c.scatter(func(i int, sh *shard) error {
		var leg *obs.Span
		if sp != nil {
			leg = sp.Child("shard")
			leg.SetStr("addr", sh.addr)
		}
		att, rerr := c.roundTrip(ctx, sh, req, FrameRowsBatch, c.cfg.Retries, c.cfg.RequestTimeout,
			func(sc *shardConn, payload []byte) (derr error) {
				gens[i], parts[i], derr = decodeRowsBatchReply(payload, &sc.col)
				return derr
			})
		leg.SetInt("attempts", int64(att))
		defer leg.End()
		if rerr != nil {
			leg.SetStr("error", rerr.Error())
			return rerr
		}
		if len(parts[i]) != len(qs) {
			return fmt.Errorf("dist: shard %s answered %d results for %d queries", sh.addr, len(parts[i]), len(qs))
		}
		sh.generation.Store(int64(gens[i]))
		leg.SetInt("generation", int64(gens[i]))
		return nil
	})
	if err != nil {
		sp.SetStr("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.End()
	c.noteMixed(gens)
	merged := make([][]workload.Row, len(qs))
	perQuery := make([][]workload.Row, len(c.shards))
	for k := range qs {
		for i := range c.shards {
			perQuery[i] = parts[i][k]
		}
		merged[k] = workload.MergePartials(c.schema, perQuery)
	}
	return merged, nil
}

// Update distributes a refresh: the delta is hash-partitioned into
// per-shard row sets over the attributes the views read, every shard
// merge-packs its slice into a pending generation concurrently (queries keep
// flowing), and once every shard has prepared, all shards are committed
// inside one brief query-blocking window. The logical generation advances
// only when every shard has acked its swap; commit stragglers are retried
// hard with backoff. A delta whose stream fails is refused before any shard
// sees it.
//
// If a prepare fails, every prepared shard is aborted and nothing changes.
// If a commit fails even after retries, the error reports which shard lagged;
// the shards that did commit stay committed, and a shard that did not loses
// its slice of this delta for good (docs/DISTRIBUTED.md, failure matrix).
func (c *Coordinator) Update(rows cube.RowIter) error {
	c.m.refreshes.Inc()
	attrs := ViewAttrs(c.views)
	parts, err := Partition(rows, attrs, len(c.shards))
	if err != nil {
		return err
	}

	// Phase 1: prepare on every shard in parallel, queries unblocked.
	prepStart := time.Now()
	gens := make([]int, len(c.shards))
	_, err = c.scatter(func(i int, sh *shard) error {
		req, err := endFrame(appendRefreshPrepare(
			appendHeader(nil, FrameRefreshPrepare, c.lastID.Add(1), 0), attrs, parts[i]))
		if err != nil {
			return err
		}
		var pp refreshPreparedPayload
		_, err = c.roundTrip(context.Background(), sh, req, FrameRefreshPrepared,
			c.cfg.Retries, c.cfg.PrepareTimeout, func(_ *shardConn, payload []byte) error {
				return unmarshalJSON(FrameRefreshPrepared, payload, &pp)
			})
		gens[i] = pp.Generation
		return err
	})
	c.m.prepareNS.Observe(time.Since(prepStart).Nanoseconds())
	if err != nil {
		c.abortAll()
		return err
	}

	// Phase 2: commit every shard inside the query-blocking window. The
	// window is short — each commit is a catalog rename plus a pointer swap.
	commitStart := time.Now()
	c.qmu.Lock()
	defer c.qmu.Unlock()
	_, err = c.scatter(func(i int, sh *shard) error {
		var ack refreshAckPayload
		if err := c.control(context.Background(), sh, FrameRefreshCommit,
			refreshCommitPayload{Generation: gens[i]},
			FrameRefreshAck, &ack, c.cfg.CommitRetries, c.cfg.RequestTimeout); err != nil {
			return err
		}
		sh.generation.Store(int64(ack.Generation))
		return nil
	})
	c.m.commitNS.Observe(time.Since(commitStart).Nanoseconds())
	if err != nil {
		return fmt.Errorf("dist: refresh commit incomplete, shards may be on mixed generations: %w", err)
	}
	return nil
}

// abortAll best-effort discards pending refreshes on every shard.
func (c *Coordinator) abortAll() {
	c.scatter(func(i int, sh *shard) error {
		var ack refreshAckPayload
		// Best effort: a shard that cannot be reached drops its pending
		// generation at its next prepare or restart.
		_ = c.control(context.Background(), sh, FrameRefreshAbort, struct{}{},
			FrameRefreshAck, &ack, 1, c.cfg.RequestTimeout)
		return nil
	})
}

// metricsRequestRetries deliberately under-budgets the debug scrape: a dead
// worker should surface quickly as a per-shard error on
// /debug/cluster, not stall the whole page behind the full query retry loop.
const metricsRequestRetries = 1

// ShardDebug is one row of the coordinator's /debug/warehouse shard table.
type ShardDebug struct {
	Addr         string `json:"addr"`
	Generation   int    `json:"generation"`
	InFlight     int64  `json:"in_flight"`
	LastError    string `json:"last_error,omitempty"`
	P95LatencyNS int64  `json:"p95_latency_ns"`
}

// DebugInfo is the coordinator's live state for the debug endpoint.
type DebugInfo struct {
	Generation int          `json:"generation"`
	Views      []string     `json:"views"`
	Shards     []ShardDebug `json:"shards"`
}

// DebugInfo reports per-shard address, last-known generation, in-flight
// scatter legs, last error, and p95 latency.
func (c *Coordinator) DebugInfo() DebugInfo {
	d := DebugInfo{Generation: c.Generation()}
	for _, v := range c.views {
		d.Views = append(d.Views, v.String())
	}
	for _, sh := range c.shards {
		sd := ShardDebug{
			Addr:         sh.addr,
			Generation:   int(sh.generation.Load()),
			InFlight:     sh.inflight.Load(),
			P95LatencyNS: sh.latency.Snapshot().P95,
		}
		if msg := sh.lastErr.Load(); msg != nil {
			sd.LastError = *msg
		}
		d.Shards = append(d.Shards, sd)
	}
	return d
}
