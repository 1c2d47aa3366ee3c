package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cubetree"
	"cubetree/internal/workload"
)

// profileWarehouse builds a warehouse whose views span many leaf pages, so a
// profiled query reports nonzero zone-map skips — the tiny testWarehouse
// fits each view on a single leaf and would make the counters vacuous.
func profileWarehouse(t *testing.T) *cubetree.Warehouse {
	t.Helper()
	src := &wtRows{cols: []cubetree.Attr{"partkey", "suppkey", "custkey"}}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 16
	}
	for i := 0; i < 6000; i++ {
		src.rows = append(src.rows, []int64{
			int64(next()%200) + 1, int64(next()%100) + 1, int64(next()%50) + 1,
		})
		src.measure = append(src.measure, int64(next()%1000))
	}
	w, err := cubetree.Materialize(
		cubetree.Config{
			Dir:     filepath.Join(t.TempDir(), "wh"),
			Domains: map[cubetree.Attr]int64{"partkey": 200, "suppkey": 100, "custkey": 50},
		},
		[]cubetree.View{
			cubetree.NewView("top", "partkey", "suppkey", "custkey"),
			cubetree.NewView("ps", "partkey", "suppkey"),
			cubetree.NewView("c", "custkey"),
			cubetree.NewView("all"),
		},
		src,
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// postJSON posts a JSON envelope to /query with an optional X-Trace-Id
// header and decodes the success response.
func postJSON(t *testing.T, base, body, traceID string) (*QueryResponse, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	return &resp, res.Header
}

// TestProfiledQueryOverHTTP walks the EXPLAIN-ANALYZE contract end to end at
// the front door: an inbound trace ID is honored and echoed, a profiled miss
// carries nonzero scan/zone-map/pool counters and is kept out of the result
// cache, and a profiled repeat of a cached statement reports the cache hit
// instead of fabricating scan work.
func TestProfiledQueryOverHTTP(t *testing.T) {
	w := profileWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	const (
		sql = `SELECT partkey, sum(quantity) FROM facts WHERE suppkey = 5 GROUP BY partkey`
		tid = "cafef00dcafef00dcafef00dcafef00d"
	)
	envelope := fmt.Sprintf(`{"sql": %q, "profile": true}`, sql)

	resp, hdr := postJSON(t, ts.URL, envelope, tid)
	if hdr.Get("X-Trace-Id") != tid || resp.TraceID != tid {
		t.Fatalf("trace id not honored: header %q, body %q, want %q", hdr.Get("X-Trace-Id"), resp.TraceID, tid)
	}
	res := resp.Results[0]
	if res.Cached {
		t.Fatal("first profiled query claims a cache hit")
	}
	p := res.Profile
	if p == nil {
		t.Fatal("profiled query returned no profile")
	}
	if p.Cache != "miss" || p.TraceID != tid {
		t.Fatalf("profile = %+v, want cache miss tagged %s", p, tid)
	}
	if p.PointsScanned <= 0 || p.LeafPagesRead <= 0 || p.LeafPagesSkipped <= 0 {
		t.Fatalf("scan counters = points %d, read %d, skipped %d — all must be nonzero on this warehouse",
			p.PointsScanned, p.LeafPagesRead, p.LeafPagesSkipped)
	}
	if p.PoolHits+p.PoolMisses <= 0 {
		t.Fatalf("pool delta = %d hits / %d misses", p.PoolHits, p.PoolMisses)
	}
	if p.RowsReturned != int64(len(res.Rows)) {
		t.Fatalf("profile rows = %d, result rows = %d", p.RowsReturned, len(res.Rows))
	}
	if p.DurationNS <= 0 {
		t.Fatalf("profile duration = %d", p.DurationNS)
	}

	// Profiled answers bypass the cache on the write side: the next
	// unprofiled run must be a miss, and only its result populates the cache.
	plain := fmt.Sprintf(`{"sql": %q}`, sql)
	resp, _ = postJSON(t, ts.URL, plain, "")
	if resp.Results[0].Cached {
		t.Fatal("profiled execution leaked into the result cache")
	}
	resp, _ = postJSON(t, ts.URL, plain, "")
	if !resp.Results[0].Cached {
		t.Fatal("second unprofiled run should hit the cache")
	}

	// A profiled repeat reports the cache disposition instead of scan work.
	resp, _ = postJSON(t, ts.URL, envelope, tid)
	res = resp.Results[0]
	if !res.Cached || res.Profile == nil || res.Profile.Cache != "hit" {
		t.Fatalf("profiled repeat = cached %v, profile %+v, want a reported cache hit", res.Cached, res.Profile)
	}
	if res.Profile.PointsScanned != 0 {
		t.Fatalf("cache hit claims %d points scanned", res.Profile.PointsScanned)
	}
}

// TestProfileMintsTraceID: with no inbound X-Trace-Id, a profiled request
// gets a fresh trace ID so the profile can be correlated with /debug/traces.
func TestProfileMintsTraceID(t *testing.T) {
	w := profileWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	resp, hdr := postJSON(t, ts.URL, `{"sql": "SELECT sum(quantity) FROM facts", "profile": true}`, "")
	if len(resp.TraceID) != 32 {
		t.Fatalf("minted trace id = %q, want 32 hex chars", resp.TraceID)
	}
	if hdr.Get("X-Trace-Id") != resp.TraceID {
		t.Fatalf("header trace %q != body trace %q", hdr.Get("X-Trace-Id"), resp.TraceID)
	}
	if p := resp.Results[0].Profile; p == nil || p.TraceID != resp.TraceID {
		t.Fatalf("profile = %+v, want trace %s", resp.Results[0].Profile, resp.TraceID)
	}
}

// TestUnprofiledResponseStaysBare: without profile or an observer, the
// response carries neither a trace ID nor a profile — the feature costs
// nothing when unused.
func TestUnprofiledResponseStaysBare(t *testing.T) {
	w := profileWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	resp, hdr := postJSON(t, ts.URL, `{"sql": "SELECT sum(quantity) FROM facts"}`, "")
	if resp.TraceID != "" || hdr.Get("X-Trace-Id") != "" {
		t.Fatalf("unprofiled response minted trace %q / header %q", resp.TraceID, hdr.Get("X-Trace-Id"))
	}
	if resp.Results[0].Profile != nil {
		t.Fatalf("unprofiled response carries profile %+v", resp.Results[0].Profile)
	}
}

// TestProfileOnPlainStore: a Store whose engine fills in no scan detail
// still answers profile:true requests with the parts the server owns — the
// cache disposition and the request's trace id — and zero scan counters.
func TestProfileOnPlainStore(t *testing.T) {
	_, ts := newTestServer(t, &fakeStore{}, Config{})
	resp, _ := postJSON(t, ts.URL, `{"sql": "SELECT sum(q) FROM facts", "profile": true}`, "")
	if len(resp.Results) != 1 || len(resp.Results[0].Rows) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.TraceID == "" {
		t.Fatal("profiled request should still get a trace id for correlation")
	}
	want := &workload.QueryProfile{Cache: "miss", TraceID: resp.TraceID}
	if got := resp.Results[0].Profile; got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("plain store profile = %+v, want %+v", got, want)
	}
}
