package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubetree"
)

// wtRows is a slice-backed fact iterator for building test warehouses.
type wtRows struct {
	cols    []cubetree.Attr
	rows    [][]int64
	measure []int64
	i       int
}

func (s *wtRows) Next() bool { s.i++; return s.i <= len(s.rows) }
func (s *wtRows) Value(a cubetree.Attr) (int64, error) {
	for j, c := range s.cols {
		if c == a {
			return s.rows[s.i-1][j], nil
		}
	}
	return 0, fmt.Errorf("no column %q", a)
}
func (s *wtRows) Measure() int64 { return s.measure[s.i-1] }

func testWarehouse(t *testing.T) *cubetree.Warehouse {
	t.Helper()
	w, err := cubetree.Materialize(
		cubetree.Config{
			Dir:     filepath.Join(t.TempDir(), "wh"),
			Domains: map[cubetree.Attr]int64{"partkey": 3, "suppkey": 2, "custkey": 3},
		},
		[]cubetree.View{
			cubetree.NewView("top", "partkey", "suppkey", "custkey"),
			cubetree.NewView("ps", "partkey", "suppkey"),
			cubetree.NewView("c", "custkey"),
			cubetree.NewView("all"),
		},
		&wtRows{
			cols: []cubetree.Attr{"partkey", "suppkey", "custkey"},
			rows: [][]int64{
				{1, 1, 1}, {1, 1, 1}, {2, 1, 1}, {2, 2, 3}, {3, 1, 3}, {1, 2, 2},
			},
			measure: []int64{5, 7, 3, 4, 9, 2},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestWarehouseOverHTTP(t *testing.T) {
	w := testWarehouse(t)
	_, ts := newTestServer(t, w, Config{})

	status, _, raw, _ := postQuery(t, ts.URL, "SELECT sum(quantity), count(*) FROM facts")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, raw)
	}
	var resp QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0].Rows
	if len(got) != 1 || got[0][0] != "30" || got[0][1] != "6" {
		t.Fatalf("super-aggregate over HTTP = %+v, want [[30 6]]", got)
	}
}

func TestUnknownViewIs4xxNever500(t *testing.T) {
	w := testWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	// "region" exists in no materialized view, so no placement covers the
	// query; the server must classify that as the client's mistake.
	status, envelope, _, _ := postQuery(t, ts.URL,
		"SELECT region, sum(quantity) FROM facts GROUP BY region")
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if envelope.Error.Code != CodeUnknownView {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeUnknownView)
	}
}

// TestHTTPOldOrNewDuringRefresh extends the engine's old-or-new generation
// guarantee to the HTTP layer: a query storm racing /admin/refresh must only
// ever observe whole old-generation or whole new-generation answers — the
// result cache in particular must never leak a stale generation's rows
// under a fresh response. Run with -race.
func TestHTTPOldOrNewDuringRefresh(t *testing.T) {
	w := testWarehouse(t)
	_, ts := newTestServer(t, w, Config{MaxInFlight: 8})

	sqls := []string{
		"SELECT sum(quantity), count(*) FROM facts",
		"SELECT partkey, suppkey, sum(quantity) FROM facts GROUP BY partkey, suppkey",
		"SELECT custkey, sum(quantity) FROM facts WHERE custkey = 1 GROUP BY custkey",
	}
	fetch := func(sql string) (int, StatementResult) {
		status, _, raw, _ := postQuery(t, ts.URL, sql)
		if status != http.StatusOK {
			t.Errorf("storm query failed: %d %s", status, raw)
			return 0, StatementResult{}
		}
		var resp QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Error(err)
			return 0, StatementResult{}
		}
		return resp.Generation, resp.Results[0]
	}

	old := make([]StatementResult, len(sqls))
	for i, sql := range sqls {
		_, old[i] = fetch(sql)
	}

	// The delta changes partkey 1 / suppkey 1 / custkey 1 and adds a new
	// custkey-2 fact, so all three answers differ between generations.
	refreshDone := make(chan int, 1)
	go func() {
		res, err := http.Post(ts.URL+"/admin/refresh?measure=quantity", "text/csv",
			strings.NewReader("partkey,suppkey,custkey,quantity\n1,1,1,100\n3,2,2,7\n"))
		if err != nil {
			refreshDone <- 0
			return
		}
		res.Body.Close()
		refreshDone <- res.StatusCode
	}()

	type obs struct {
		sqlIdx int
		gen    int
		res    StatementResult
	}
	var (
		mu       sync.Mutex
		observed []obs
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				idx := (i + c) % len(sqls)
				gen, res := fetch(sqls[idx])
				if gen == 0 {
					return
				}
				mu.Lock()
				observed = append(observed, obs{sqlIdx: idx, gen: gen, res: res})
				mu.Unlock()
			}
		}(c)
	}
	if got := <-refreshDone; got != http.StatusOK {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("refresh = %d, want 200", got)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	now := make([]StatementResult, len(sqls))
	for i, sql := range sqls {
		_, now[i] = fetch(sql)
	}
	for i := range sqls {
		if reflect.DeepEqual(old[i].Rows, now[i].Rows) {
			t.Fatalf("refresh did not change the answer to %q; the race would assert nothing", sqls[i])
		}
	}
	for _, o := range observed {
		oldMatch := reflect.DeepEqual(o.res.Rows, old[o.sqlIdx].Rows)
		newMatch := reflect.DeepEqual(o.res.Rows, now[o.sqlIdx].Rows)
		if !oldMatch && !newMatch {
			t.Fatalf("query %q (gen %d) observed rows matching neither generation: %+v",
				sqls[o.sqlIdx], o.gen, o.res.Rows)
		}
		// A response stamped with the new generation must carry new rows —
		// anything else means the cache leaked across the swap.
		if o.gen > 1 && !newMatch {
			t.Fatalf("query %q stamped generation %d but returned old rows %+v",
				sqls[o.sqlIdx], o.gen, o.res.Rows)
		}
	}
	if len(observed) == 0 {
		t.Fatal("storm observed nothing; the race exercised no requests")
	}
}

// TestRefreshBadDeltaCommitsNothing posts CSV deltas the warehouse cannot
// take whole — a bad record after good ones, a column the views read missing
// — and checks each answers 400 bad_request with the generation and the
// totals where they were: a refresh commits the whole delta or nothing.
func TestRefreshBadDeltaCommitsNothing(t *testing.T) {
	w := testWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	for name, body := range map[string]string{
		"bad record": "partkey,suppkey,custkey,quantity\n1,1,1,100\n2,1,1,100\nx,1,1,5\n",
		"no custkey": "partkey,suppkey,quantity\n1,1,5\n",
	} {
		t.Run(name, func(t *testing.T) {
			res, err := http.Post(ts.URL+"/admin/refresh?measure=quantity", "text/csv", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			var envelope ErrorResponse
			if err := json.NewDecoder(res.Body).Decode(&envelope); err != nil || res.StatusCode != http.StatusBadRequest ||
				envelope.Error.Code != CodeBadRequest {
				t.Fatalf("refresh = %d %+v (%v), want 400 %s", res.StatusCode, envelope, err, CodeBadRequest)
			}
			rows, err := w.QueryProfiledCtx(context.Background(), cubetree.Query{Node: []cubetree.Attr{}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g := w.Generation(); g != 1 || rows[0].Sum != 30 || rows[0].Count != 6 {
				t.Fatalf("after a refused delta: generation %d, sum %d, count %d; want 1, 30, 6",
					g, rows[0].Sum, rows[0].Count)
			}
		})
	}
}

// TestClientRetriesShedResponses: a 429 is retried until the server answers.
func TestClientRetriesShedResponses(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusTooManyRequests, CodeOverloaded, "try later", 10*time.Millisecond)
			return
		}
		writeJSON(w, QueryResponse{Generation: 1, Results: []StatementResult{{Headers: []string{"sum(q)"}, Rows: [][]string{{"30"}}}}})
	}))
	defer ts.Close()

	resp, err := (&Client{Base: ts.URL}).Query(context.Background(), "SELECT sum(q) FROM f", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := resp.Results[0].Rows; rows[0][0] != "30" {
		t.Fatalf("rows = %+v", rows)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (two shed, one answered)", calls.Load())
	}
}

// TestClientDoesNotRetryClientErrors: a 400 would fail identically forever.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadSQL, "nope", 0)
	}))
	defer ts.Close()
	_, err := (&Client{Base: ts.URL}).Query(context.Background(), "SELEC", QueryOpts{})
	if err == nil {
		t.Fatal("want error")
	}
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadSQL {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("client retried a 400: %d calls", calls.Load())
	}
}

// TestClientHonorsRetryAfterFromBody: the structured body's Retry-After beats
// a longer backoff step. With a one-minute backoff the request can only
// finish inside its deadline if the retry waited the server's 20ms.
func TestClientHonorsRetryAfterFromBody(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			writeError(w, http.StatusServiceUnavailable, CodePoolExhausted, "pool", 20*time.Millisecond)
			return
		}
		writeJSON(w, QueryResponse{Generation: 1, Results: []StatementResult{{Headers: []string{"sum(q)"}, Rows: [][]string{{"30"}}}}})
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &Client{Base: ts.URL, backoff: time.Minute}
	if _, err := c.Query(ctx, "SELECT sum(q) FROM f", QueryOpts{}); err != nil {
		t.Fatalf("query = %v; the retry waited the backoff, not the body's Retry-After", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

func TestSQLForRoundTrips(t *testing.T) {
	w := testWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	q := cubetree.Query{
		Node:  []cubetree.Attr{"partkey", "suppkey"},
		Fixed: []cubetree.Pred{{Attr: "partkey", Value: 1}},
	}
	direct, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&Client{Base: ts.URL}).Query(context.Background(), SQLFor(q), QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res := &resp.Results[0]
	if len(res.Rows) != len(direct) {
		t.Fatalf("HTTP rows = %d, direct rows = %d", len(res.Rows), len(direct))
	}
	for i, r := range direct {
		if res.Rows[i][len(res.Rows[i])-1] != fmt.Sprint(r.Sum) {
			t.Fatalf("row %d: HTTP %v vs direct sum %d", i, res.Rows[i], r.Sum)
		}
	}
}
