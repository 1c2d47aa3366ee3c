package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/workload"
)

// Pending is a prepared-but-uncommitted refresh on a shard's warehouse;
// *cubetree.PendingUpdate satisfies it.
type Pending interface {
	Generation() int
	Commit() error
	Abort() error
}

// Backend is the warehouse surface a Worker serves. *cubetree.Warehouse
// provides everything except BeginUpdate's interface return type; wrap it
// in a small adapter (see cmd/cubetreed) rather than importing the root
// package here.
type Backend interface {
	// QueryProfiledCtx answers one query under ctx, filling a non-nil prof
	// with the shard-local EXPLAIN-ANALYZE breakdown.
	QueryProfiledCtx(ctx context.Context, q workload.Query, prof *workload.QueryProfile) ([]workload.Row, error)
	QueryBatchCtx(ctx context.Context, qs []workload.Query, parallelism int) ([][]workload.Row, error)
	Generation() int
	Views() []lattice.View
	Domains() map[lattice.Attr]int64
	Schema() []lattice.Agg
	BeginUpdate(rows cube.RowIter) (Pending, error)
	// Stat reports stored points and on-disk bytes for the stats frame.
	Stat() (points, bytes int64)
}

// Worker serves one shard's warehouse over the wire protocol: one
// goroutine per connection, one request in flight per connection. Refresh
// frames (prepare/commit/abort) are serialized across connections; queries
// run concurrently, against the old generation until a commit lands.
type Worker struct {
	backend Backend
	o       *obs.Observer

	requestVec *obs.CounterVec
	// requests caches requestVec's children by frame type, each resolved at
	// the first frame of its type, so a frame costs no family lookup.
	requests [frameTypeMax + 1]atomic.Pointer[obs.Counter]
	errs     *obs.Counter

	mu    sync.Mutex // guards conns, ln
	conns map[net.Conn]struct{}
	ln    net.Listener

	refreshMu sync.Mutex // serializes prepare/commit/abort, guards pending
	pending   Pending
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// NewWorker creates a worker over backend. o may be nil.
func NewWorker(backend Backend, o *obs.Observer) *Worker {
	w := &Worker{backend: backend, o: o, conns: map[net.Conn]struct{}{}}
	if o != nil {
		w.requestVec = o.Registry.CounterVec("dist_worker_requests_total", "type")
		w.errs = o.Registry.Counter("dist_worker_errors_total")
	}
	return w
}

// Serve accepts connections on ln until Close; it returns nil after a
// Close-initiated shutdown and the accept error otherwise.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		ln.Close()
		return nil
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if w.closed.Load() {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed.Load() {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handleConn(conn)
	}
}

// Close stops the worker: in-flight frames are cut off by closing their
// connections, and a pending (uncommitted) refresh is aborted so its
// generation directory does not linger until the next Open's sweep.
func (w *Worker) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	w.mu.Lock()
	if w.ln != nil {
		w.ln.Close()
	}
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	w.refreshMu.Lock()
	defer w.refreshMu.Unlock()
	pending := w.pending
	w.pending = nil
	if pending != nil {
		return pending.Abort()
	}
	return nil
}

// countRequest counts one request frame into dist_worker_requests_total.
func (w *Worker) countRequest(t FrameType) {
	c := w.requests[t].Load()
	if c == nil {
		c = w.requestVec.With(t.String())
		w.requests[t].Store(c)
	}
	c.Inc()
}

// connScratch is what one worker connection reuses from frame to frame: the
// request payload buffer, the reply frame buffer and the row-set encoder's
// column scratch.
type connScratch struct {
	in, out []byte
	col     []int64
}

func (w *Worker) handleConn(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var s connScratch
	for {
		f, in, err := readFrame(br, s.in)
		s.in = keep(in)
		if err != nil {
			// EOF, peer reset, or protocol violation: drop the conn — after
			// telling a peer of another version why, so it fails at once
			// instead of retrying into the same wall.
			var ve *VersionError
			if errors.As(err, &ve) {
				w.errs.Inc()
				// Best effort: the conn is closed next whether or not this lands.
				_, _ = conn.Write(w.errorFrame(nil, f.ID, &wireError{code: ErrCodeBadProtocol, err: err}))
			}
			return
		}
		w.countRequest(f.Type)
		reply, err := w.dispatch(f, &s)
		if err != nil {
			w.errs.Inc()
			reply = w.errorFrame(s.out[:0], f.ID, err)
		}
		s.out = keep(reply)
		// One Write per reply: header and payload were built in one buffer.
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// wireError carries a typed protocol error from a handler to the reply
// writer.
type wireError struct {
	code         string
	retryable    bool
	retryAfterMS int64
	err          error
}

func (e *wireError) Error() string { return e.err.Error() }
func (e *wireError) Unwrap() error { return e.err }

// errorFrame builds the error reply for err in dst.
func (w *Worker) errorFrame(dst []byte, id uint64, err error) []byte {
	p := errorPayload{Code: ErrCodeQuery, Msg: err.Error()}
	var we *wireError
	if errors.As(err, &we) {
		p.Code, p.Retryable, p.RetryAfterMS = we.code, we.retryable, we.retryAfterMS
	} else {
		var ex *pager.ExhaustedError
		if errors.As(err, &ex) {
			// The shard's buffer pool is transiently full; the coordinator
			// may retry after backing off.
			p.Code, p.Retryable, p.RetryAfterMS = ErrCodeOverloaded, true, 50
		}
	}
	f, merr := appendJSONFrame(dst, FrameError, id, p)
	if merr != nil {
		return appendHeader(dst, FrameError, id, 0)
	}
	return f
}

func badRequest(err error) error {
	return &wireError{code: ErrCodeBadRequest, err: err}
}

// dispatch executes one request and returns its whole reply frame, built in
// s.out's memory.
func (w *Worker) dispatch(f Frame, s *connScratch) ([]byte, error) {
	out := s.out[:0]
	switch f.Type {
	case FrameQuery:
		q, traceID, profile, err := decodeQueryRequest(f.Payload)
		if err != nil {
			return nil, badRequest(err)
		}
		// The coordinator's trace ID rides the payload into this shard's
		// context, so the engine tags its spans (and slow-log entries) with
		// it and /debug/traces here can be filtered to the same request.
		ctx := obs.WithTraceID(context.Background(), traceID)
		var prof *workload.QueryProfile
		if profile {
			prof = &workload.QueryProfile{TraceID: traceID}
		}
		rows, err := w.backend.QueryProfiledCtx(ctx, q, prof)
		if err != nil {
			return nil, err
		}
		out, err = appendRowsReply(appendHeader(out, FrameRows, f.ID, 0),
			w.backend.Generation(), rows, prof, &s.col)
		if err != nil {
			return nil, err
		}
		return endFrame(out)
	case FrameQueryBatch:
		qs, parallelism, traceID, err := decodeQueryBatchRequest(f.Payload)
		if err != nil {
			return nil, badRequest(err)
		}
		ctx := obs.WithTraceID(context.Background(), traceID)
		results, err := w.backend.QueryBatchCtx(ctx, qs, parallelism)
		if err != nil {
			return nil, err
		}
		return endFrame(appendRowsBatchReply(appendHeader(out, FrameRowsBatch, f.ID, 0),
			w.backend.Generation(), results, &s.col))
	case FrameRefreshPrepare:
		attrs := ViewAttrs(w.backend.Views())
		rows, err := decodeRefreshPrepare(f.Payload, attrs)
		if err != nil {
			return nil, badRequest(err)
		}
		return w.prepare(out, f.ID, attrs, rows)
	case FrameRefreshCommit:
		var p refreshCommitPayload
		if err := unmarshalJSON(f.Type, f.Payload, &p); err != nil {
			return nil, badRequest(err)
		}
		return w.commit(out, f.ID, p.Generation)
	case FrameRefreshAbort:
		w.refreshMu.Lock()
		defer w.refreshMu.Unlock()
		pending := w.pending
		w.pending = nil
		if pending != nil {
			if err := pending.Abort(); err != nil {
				return nil, &wireError{code: ErrCodeRefresh, err: err}
			}
		}
		return appendJSONFrame(out, FrameRefreshAck, f.ID, refreshAckPayload{
			Generation: w.backend.Generation()})
	case FrameStats:
		views := w.backend.Views()
		wviews := make([]wireView, len(views))
		for i, v := range views {
			wv := wireView{Name: v.Name}
			for _, a := range v.Attrs {
				wv.Attrs = append(wv.Attrs, string(a))
			}
			wviews[i] = wv
		}
		domains := map[string]int64{}
		for a, d := range w.backend.Domains() {
			domains[string(a)] = d
		}
		points, size := w.backend.Stat()
		return appendJSONFrame(out, FrameStatsReply, f.ID, statsReplyPayload{
			Generation: w.backend.Generation(),
			Views:      wviews,
			Domains:    domains,
			Schema:     lattice.Schema(w.backend.Schema()).Strings(),
			Points:     points,
			Bytes:      size,
		})
	case FrameHealth:
		return appendJSONFrame(out, FrameHealthReply, f.ID, healthReplyPayload{
			Generation: w.backend.Generation()})
	case FrameMetrics:
		var snap obs.Snapshot
		if w.o != nil {
			snap = w.o.Registry.Snapshot()
		}
		return appendJSONFrame(out, FrameMetricsReply, f.ID, metricsReplyPayload{
			Generation: w.backend.Generation(), Metrics: snap})
	default:
		return nil, badRequest(fmt.Errorf("dist: unexpected request frame %s", f.Type))
	}
}

// prepare merge-packs the shard's delta, facts over attrs, into a pending
// generation. A re-prepare supersedes any earlier pending refresh (the
// coordinator is retrying from the top), and an empty delta is acked as a
// no-op at the current generation.
func (w *Worker) prepare(out []byte, id uint64, attrs []lattice.Attr, rows []workload.Row) ([]byte, error) {
	w.refreshMu.Lock()
	defer w.refreshMu.Unlock()
	stale := w.pending
	w.pending = nil
	if stale != nil {
		stale.Abort()
	}
	if len(rows) == 0 {
		return appendJSONFrame(out, FrameRefreshPrepared, id, refreshPreparedPayload{
			Generation: w.backend.Generation(), NoOp: true})
	}
	pending, err := w.backend.BeginUpdate(Facts(attrs, rows))
	if err != nil {
		return nil, &wireError{code: ErrCodeRefresh, err: err}
	}
	w.pending = pending
	return appendJSONFrame(out, FrameRefreshPrepared, id, refreshPreparedPayload{
		Generation: pending.Generation()})
}

// commit switches to the pending generation. Committing the current
// generation with nothing pending re-acks — that makes commit retries after
// a lost ack, and commits of no-op prepares, idempotent. Any other
// generation is a coordinator/worker divergence and is rejected as
// non-retryable.
func (w *Worker) commit(out []byte, id uint64, gen int) ([]byte, error) {
	w.refreshMu.Lock()
	defer w.refreshMu.Unlock()
	pending := w.pending
	switch {
	case pending != nil && pending.Generation() == gen:
		if err := pending.Commit(); err != nil {
			return nil, &wireError{code: ErrCodeRefresh, err: err}
		}
		w.pending = nil
	case pending == nil && w.backend.Generation() == gen:
		// Already committed (or a no-op prepare): ack again.
	default:
		have := w.backend.Generation()
		if pending != nil {
			have = pending.Generation()
		}
		return nil, &wireError{code: ErrCodeBadGeneration,
			err: fmt.Errorf("dist: commit generation %d, shard has %d", gen, have)}
	}
	return appendJSONFrame(out, FrameRefreshAck, id, refreshAckPayload{
		Generation: w.backend.Generation()})
}
