package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/workload"
)

// fakeStore is a controllable Store: it can block until released, fail with
// a chosen error, or panic, so admission, timeout, shed, and recovery paths
// can be driven deterministically without a real warehouse.
type fakeStore struct {
	block    chan struct{} // non-nil: queries wait for close(block) or ctx
	err      error
	panicOn  bool
	gen      atomic.Int64
	updates  chan struct{} // non-nil: Update waits for one receive
	updating atomic.Bool
	queries  atomic.Int64
}

// QueryProfiledCtx answers without filling prof, like a store whose engine
// reports no scan detail.
func (f *fakeStore) QueryProfiledCtx(ctx context.Context, q workload.Query, _ *workload.QueryProfile) ([]workload.Row, error) {
	f.queries.Add(1)
	if f.panicOn {
		panic("fake store exploded")
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return []workload.Row{{Group: make([]int64, len(q.Node)), Sum: 42, Count: 2}}, nil
}

func (f *fakeStore) QueryBatchCtx(ctx context.Context, qs []workload.Query, _ int) ([][]workload.Row, error) {
	out := make([][]workload.Row, len(qs))
	for i, q := range qs {
		rows, err := f.QueryProfiledCtx(ctx, q, nil)
		if err != nil {
			return nil, err
		}
		out[i] = rows
	}
	return out, nil
}

func (f *fakeStore) Generation() int { return int(f.gen.Load()) + 1 }
func (f *fakeStore) Views() []lattice.View {
	return []lattice.View{{Name: "top", Attrs: []lattice.Attr{"partkey"}}}
}
func (f *fakeStore) Domains() map[lattice.Attr]int64 {
	return map[lattice.Attr]int64{"partkey": 3}
}
func (f *fakeStore) Schema() []lattice.Agg { return lattice.DefaultSchema() }
func (f *fakeStore) Update(rows cube.RowIter) error {
	if f.updates != nil {
		f.updating.Store(true)
		<-f.updates
	}
	for rows.Next() {
	}
	f.gen.Add(1)
	return nil
}

func newTestServer(t *testing.T, store Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Store = store
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery posts body to /query and decodes the response, returning the
// status, the decoded error envelope (zero when 200), and the raw body.
func postQuery(t *testing.T, base, body string) (int, ErrorResponse, []byte, http.Header) {
	t.Helper()
	res, err := http.Post(base+"/query", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	var envelope ErrorResponse
	if res.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatalf("status %d body is not structured JSON: %v\n%s", res.StatusCode, err, raw)
		}
	}
	return res.StatusCode, envelope, raw, res.Header
}

func TestQueryHappyPath(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	status, _, raw, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM facts")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var resp QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Rows) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := resp.Results[0].Rows[0][0]; got != "42" {
		t.Fatalf("sum = %q, want 42", got)
	}
}

func TestQueryJSONEnvelopeBatch(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	body := `{"batch": ["SELECT sum(q) FROM f", "SELECT count(*) FROM f"]}`
	status, _, raw, _ := postQuery(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var resp QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("want 2 results, got %+v", resp)
	}
}

func TestMalformedSQLIs400(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	for _, sql := range []string{
		"SELEC sum(q) FROM f",
		"SELECT FROM f",
		"SELECT median(q) FROM f",
		"SELECT sum(q) FROM f WHERE a BETWEEN 5",
		`{"sql": "not sql at all"}`,
	} {
		status, envelope, _, _ := postQuery(t, ts.URL, sql)
		if status != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", sql, status)
		}
		if envelope.Error.Code != CodeBadSQL {
			t.Errorf("%q: code = %q, want %q", sql, envelope.Error.Code, CodeBadSQL)
		}
	}
}

func TestBadEnvelopeIs400(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	cases := []string{
		"",
		"   ",
		`{"sql": "SELECT sum(q) FROM f"`, /* truncated */
		`{"sql": "a", "batch": ["b"]}`,
		`{"nope": 1}`,
		`{"batch": []}`,
		`{"sql": "SELECT sum(q) FROM f"} trailing`,
		`{"timeout_ms": -5, "sql": "SELECT sum(q) FROM f"}`,
	}
	for _, body := range cases {
		status, envelope, _, _ := postQuery(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", body, status)
		}
		if envelope.Error.Code != CodeBadRequest {
			t.Errorf("%q: code = %q, want %q", body, envelope.Error.Code, CodeBadRequest)
		}
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{MaxBodyBytes: 64})
	status, envelope, _, _ := postQuery(t, ts.URL, strings.Repeat("x", 1024))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
	if envelope.Error.Code != CodeBodyTooLarge {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeBodyTooLarge)
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	res, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", res.StatusCode)
	}
	var envelope ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&envelope); err != nil {
		t.Fatalf("404 body is not structured JSON: %v", err)
	}
	if envelope.Error.Code != CodeNotFound {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeNotFound)
	}
}

func TestShedWhenSaturated(t *testing.T) {
	store := &fakeStore{block: make(chan struct{})}
	s, ts := newTestServer(t, store, Config{MaxInFlight: 1, MaxQueue: -1, QueueWait: time.Second})

	firstDone := make(chan int, 1)
	go func() {
		status, _, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
		firstDone <- status
	}()
	waitFor(t, func() bool { return s.gate.inUse() == 1 })

	status, envelope, _, hdr := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", status)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeOverloaded)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if envelope.Error.RetryAfterMS <= 0 {
		t.Fatal("shed response missing retry_after_ms")
	}

	close(store.block)
	if got := <-firstDone; got != http.StatusOK {
		t.Fatalf("first (admitted) request = %d, want 200", got)
	}
}

func TestQueueWaitExpiresTo429(t *testing.T) {
	store := &fakeStore{block: make(chan struct{})}
	defer close(store.block)
	s, ts := newTestServer(t, store, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond})

	go postQuietly(ts.URL) // occupies the slot
	waitFor(t, func() bool { return s.gate.inUse() == 1 })

	start := time.Now()
	status, envelope, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusTooManyRequests {
		t.Fatalf("queued status = %d, want 429", status)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeOverloaded)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed after %v; the request should have waited out the queue bound", waited)
	}
}

func TestRateLimited429(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{RatePerSec: 0.5, RateBurst: 1})
	status, _, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusOK {
		t.Fatalf("first request = %d, want 200", status)
	}
	status, envelope, _, hdr := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", status)
	}
	if envelope.Error.Code != CodeRateLimited {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeRateLimited)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("rate-limited response missing Retry-After")
	}
}

func TestPanicRecoveryIs500JSON(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{panicOn: true}, Config{})
	status, envelope, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	if envelope.Error.Code != CodeInternal {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeInternal)
	}
	// The server must keep serving after a panic.
	status, _, _, _ = postQuery(t, ts.URL, "SELEC")
	if status != http.StatusBadRequest {
		t.Fatalf("post-panic request = %d, want 400", status)
	}
}

func TestRequestTimeoutIs504(t *testing.T) {
	store := &fakeStore{block: make(chan struct{})}
	defer close(store.block)
	_, ts := newTestServer(t, store, Config{RequestTimeout: 25 * time.Millisecond})
	status, envelope, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if envelope.Error.Code != CodeDeadline {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeDeadline)
	}
}

func TestPerRequestTimeoutLowersServerTimeout(t *testing.T) {
	store := &fakeStore{block: make(chan struct{})}
	defer close(store.block)
	_, ts := newTestServer(t, store, Config{RequestTimeout: time.Hour})
	start := time.Now()
	status, _, _, _ := postQuery(t, ts.URL, `{"sql": "SELECT sum(q) FROM f", "timeout_ms": 25}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; timeout_ms was ignored", elapsed)
	}
}

func TestPoolExhaustedIs503WithRetryAfter(t *testing.T) {
	store := &fakeStore{err: &pager.ExhaustedError{Wait: 200 * time.Millisecond}}
	_, ts := newTestServer(t, store, Config{})
	status, envelope, _, hdr := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if envelope.Error.Code != CodePoolExhausted {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodePoolExhausted)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want rounded-up 1s from the pool's 200ms wait", hdr.Get("Retry-After"))
	}
	if envelope.Error.RetryAfterMS != 200 {
		t.Fatalf("retry_after_ms = %d, want the pool's exact 200ms", envelope.Error.RetryAfterMS)
	}
}

func TestDrainShedsNewWorkAndWaitsForInflight(t *testing.T) {
	store := &fakeStore{block: make(chan struct{})}
	s, ts := newTestServer(t, store, Config{})

	inflightDone := make(chan int, 1)
	go func() {
		status, _, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
		inflightDone <- status
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, func() bool { return s.Draining() })

	// New queries are shed while the admitted one is still running.
	status, envelope, _, _ := postQuery(t, ts.URL, "SELECT sum(q) FROM f")
	if status != http.StatusServiceUnavailable || envelope.Error.Code != CodeDraining {
		t.Fatalf("during drain: status %d code %q, want 503 %q", status, envelope.Error.Code, CodeDraining)
	}
	res, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	// Liveness stays 200 through a drain, and the structured body says the
	// process is alive-but-draining.
	var hs HealthStatus
	if err := json.NewDecoder(res.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", res.StatusCode)
	}
	if hs.Status != "ok" || !hs.Draining {
		t.Fatalf("/healthz during drain = %+v, want ok+draining", hs)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(store.block)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := <-inflightDone; got != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", got)
	}
}

func TestDrainDeadline(t *testing.T) {
	store := &fakeStore{block: make(chan struct{})}
	s, ts := newTestServer(t, store, Config{})
	go postQuietly(ts.URL)
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil despite a stuck request")
	}
	close(store.block)
}

func TestRefreshBusyIs409(t *testing.T) {
	store := &fakeStore{updates: make(chan struct{})}
	_, ts := newTestServer(t, store, Config{})

	first := make(chan int, 1)
	go func() {
		res, err := http.Post(ts.URL+"/admin/refresh", "text/csv",
			strings.NewReader("partkey,quantity\n1,5\n"))
		if err != nil {
			first <- 0
			return
		}
		res.Body.Close()
		first <- res.StatusCode
	}()
	waitFor(t, func() bool { return store.updating.Load() })

	res, err := http.Post(ts.URL+"/admin/refresh?measure=quantity", "text/csv",
		strings.NewReader("partkey,quantity\n2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var envelope ErrorResponse
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent refresh = %d, want 409", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&envelope); err != nil || envelope.Error.Code != CodeRefreshBusy {
		t.Fatalf("409 body: %v %+v", err, envelope)
	}

	store.updates <- struct{}{}
	if got := <-first; got != http.StatusOK {
		t.Fatalf("first refresh = %d, want 200", got)
	}
}

func TestRefreshBadCSVIs400(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	res, err := http.Post(ts.URL+"/admin/refresh?measure=quantity", "text/csv",
		strings.NewReader("partkey,price\n1,5\n")) // no quantity column
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("refresh without measure column = %d, want 400", res.StatusCode)
	}
}

func TestViewsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	res, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp ViewsResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 1 || len(resp.Views) != 1 || resp.Views[0].Name != "top" {
		t.Fatalf("views = %+v", resp)
	}
	if resp.Domains["partkey"] != 3 {
		t.Fatalf("domains = %+v", resp.Domains)
	}
}

func TestCacheHitOnRepeatAndInvalidationOnRefresh(t *testing.T) {
	store := &fakeStore{}
	_, ts := newTestServer(t, store, Config{})
	sql := "SELECT sum(q) FROM f"

	decode := func() QueryResponse {
		t.Helper()
		status, _, raw, _ := postQuery(t, ts.URL, sql)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, raw)
		}
		var resp QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if r := decode(); r.Results[0].Cached {
		t.Fatal("first execution claims to be cached")
	}
	if r := decode(); !r.Results[0].Cached {
		t.Fatal("repeat of an identical statement missed the cache")
	}
	// Equivalent spelling shares the cache entry.
	sql = "select SUM(q) from f"
	if r := decode(); !r.Results[0].Cached {
		t.Fatal("case-variant spelling of the same statement missed the cache")
	}

	before := store.queries.Load()
	store.gen.Add(1) // a refresh swapped the generation
	sql = "SELECT sum(q) FROM f"
	r := decode()
	if r.Results[0].Cached {
		t.Fatal("post-refresh request served a stale generation's cache entry")
	}
	if store.queries.Load() == before {
		t.Fatal("post-refresh request did not reach the store")
	}
	if r.Generation != 2 {
		t.Fatalf("generation = %d, want 2", r.Generation)
	}
}

// postQuietly issues a query ignoring the outcome — for goroutines that
// only need to occupy a slot, where t.Fatal would be illegal.
func postQuietly(base string) {
	res, err := http.Post(base+"/query", "text/plain",
		strings.NewReader("SELECT sum(q) FROM f"))
	if err == nil {
		res.Body.Close()
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
