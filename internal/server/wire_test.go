package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cubetree/internal/lattice"
	"cubetree/internal/sqlish"
	"cubetree/internal/workload"
)

// tableStore answers every query with the same fixed rows and fills a
// profile with recognizable counters, so a test can rebuild the exact
// response the server must send.
type tableStore struct {
	fakeStore
	schema lattice.Schema
	rows   []workload.Row
}

func fillProfile(p *workload.QueryProfile) {
	p.View = "v<&>"
	p.PointsScanned = 7
	p.LeafPagesRead = 2
	p.Shards = []workload.ShardProfile{{Addr: "a b"}}
}

func (s *tableStore) QueryProfiledCtx(_ context.Context, _ workload.Query, prof *workload.QueryProfile) ([]workload.Row, error) {
	if prof != nil {
		fillProfile(prof)
	}
	return s.rows, nil
}

func (s *tableStore) QueryBatchCtx(ctx context.Context, qs []workload.Query, _ int) ([][]workload.Row, error) {
	out := make([][]workload.Row, len(qs))
	for i, q := range qs {
		out[i], _ = s.QueryProfiledCtx(ctx, q, nil)
	}
	return out, nil
}

func (s *tableStore) Schema() []lattice.Agg { return s.schema }

// wireCase is one /query exchange: prime is sent first, unprofiled, so its
// statements are cached; then batch is sent and must come back byte for
// byte as encoding/json renders the QueryResponse built through
// Statement.Format, with exactly the primed statements marked cached.
type wireCase struct {
	schema  lattice.Schema
	rows    []workload.Row
	prime   []string
	batch   []string
	profile bool
	traceID string
}

func serveQuery(h http.Handler, body []byte, traceID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func checkWire(t *testing.T, c wireCase) {
	t.Helper()
	store := &tableStore{schema: c.schema, rows: c.rows}
	s := New(Config{Store: store})
	primed := map[string]bool{}
	if len(c.prime) > 0 {
		body, _ := json.Marshal(QueryRequest{Batch: c.prime})
		if rec := serveQuery(s.Handler(), body, ""); rec.Code != http.StatusOK {
			t.Fatalf("prime: status %d: %s", rec.Code, rec.Body)
		}
		for _, sql := range c.prime {
			primed[sql] = true
		}
	}
	body, _ := json.Marshal(QueryRequest{Batch: c.batch, Profile: c.profile})
	rec := serveQuery(s.Handler(), body, c.traceID)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	tid := rec.Header().Get("X-Trace-Id")
	want := QueryResponse{Generation: store.Generation(), TraceID: tid}
	for _, sql := range c.batch {
		st, err := sqlish.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		headers, cells, err := st.Format(c.rows, c.schema)
		if err != nil {
			t.Fatal(err)
		}
		if cells == nil {
			cells = [][]string{}
		}
		res := StatementResult{Headers: headers, Rows: cells, Cached: primed[sql]}
		if c.profile {
			res.Profile = &workload.QueryProfile{TraceID: tid, Cache: "hit"}
			if !res.Cached {
				res.Profile.Cache = "miss"
				fillProfile(res.Profile)
			}
		}
		want.Results = append(want.Results, res)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("body differs from encoding/json\n got: %q\nwant: %q", got, buf.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// TestQueryResponseGolden pins /query's body to what encoding/json writes
// for the documented QueryResponse, across hits, misses, profiles, empty
// answers, LIMIT, AVG, MIN/MAX extras, int64 extremes and hostile trace IDs.
func TestQueryResponseGolden(t *testing.T) {
	minmax, _ := lattice.NewSchema(lattice.AggMin, lattice.AggMax)
	def := lattice.DefaultSchema()
	rows := func(n int) []workload.Row {
		out := make([]workload.Row, n)
		for i := range out {
			out[i] = workload.Row{Group: []int64{int64(1000 + i), int64(-i)}, Sum: int64(1000 * i), Count: int64(i + 1), Extra: []int64{int64(-i), int64(i * i)}}
		}
		return out
	}
	extreme := []workload.Row{
		{Group: []int64{math.MinInt64, math.MaxInt64}, Sum: math.MinInt64, Count: math.MaxInt64, Extra: []int64{math.MinInt64, math.MaxInt64}},
		{Group: []int64{0, -1}, Sum: math.MaxInt64, Count: 1, Extra: []int64{0, 0}},
		{Group: []int64{1, 1}, Sum: -7, Count: 0, Extra: []int64{-7, -7}},
	}
	const (
		pq   = "SELECT partkey, sum(quantity), count(*) FROM f GROUP BY partkey, suppkey"
		sq   = "SELECT suppkey, avg(quantity) FROM f GROUP BY partkey, suppkey"
		tot  = "SELECT sum(quantity) FROM f WHERE partkey = 3"
		lim  = "SELECT partkey, suppkey, sum(quantity) FROM f GROUP BY partkey, suppkey LIMIT 2"
		mm   = "SELECT partkey, min(quantity), max(quantity), avg(quantity) FROM f GROUP BY partkey, suppkey"
		rng  = "SELECT suppkey, count(*) FROM f WHERE partkey BETWEEN 1 AND 9 GROUP BY suppkey"
		lim0 = "SELECT sum(quantity) FROM f LIMIT 0"
	)
	for name, c := range map[string]wireCase{
		"single miss":          {schema: def, rows: rows(5), batch: []string{pq}},
		"single hit":           {schema: def, rows: rows(5), prime: []string{pq}, batch: []string{pq}},
		"batch all miss":       {schema: def, rows: rows(3), batch: []string{pq, sq, tot}},
		"batch mixed":          {schema: def, rows: rows(3), prime: []string{sq, lim}, batch: []string{pq, sq, tot, lim, pq}},
		"profile miss":         {schema: def, rows: rows(2), batch: []string{pq}, profile: true, traceID: "beef"},
		"profile hit":          {schema: def, rows: rows(2), prime: []string{pq}, batch: []string{pq}, profile: true, traceID: "beef"},
		"profile batch mixed":  {schema: minmax, rows: rows(4), prime: []string{mm}, batch: []string{mm, pq, sq}, profile: true},
		"profile minted trace": {schema: def, rows: rows(1), batch: []string{tot}, profile: true},
		"empty miss":           {schema: def, rows: nil, batch: []string{pq}},
		"empty hit":            {schema: def, rows: nil, prime: []string{pq, rng}, batch: []string{rng, pq}},
		"limit":                {schema: def, rows: rows(6), batch: []string{lim, lim0}},
		"limit hit":            {schema: def, rows: rows(6), prime: []string{lim0, lim}, batch: []string{lim, lim0}},
		"avg":                  {schema: def, rows: rows(7), batch: []string{sq}},
		"min max":              {schema: minmax, rows: rows(4), batch: []string{mm}},
		"int64 extremes":       {schema: minmax, rows: extreme, batch: []string{mm, pq, lim}},
		"trace quote":          {schema: def, rows: rows(1), batch: []string{tot}, traceID: `a"b`},
		"trace backslash":      {schema: def, rows: rows(1), batch: []string{tot}, traceID: `a\b`},
		"trace html":           {schema: def, rows: rows(1), batch: []string{tot}, traceID: "<script>&</script>"},
		"trace line separator": {schema: def, rows: rows(1), batch: []string{tot}, traceID: "x\u2028y\u2029z", profile: true},
		"trace invalid utf8":   {schema: def, rows: rows(1), batch: []string{tot}, traceID: "ok\xff\xfe\xc3(", profile: true},
		"trace control":        {schema: def, rows: rows(1), batch: []string{tot}, traceID: "a\x01\x7fb\tc"},
	} {
		t.Run(name, func(t *testing.T) { checkWire(t, c) })
	}
}

// FuzzQueryResponse checks the writer against encoding/json on arbitrary
// trace IDs, measure values, LIMITs, profile flags and cache states.
func FuzzQueryResponse(f *testing.F) {
	f.Add("", int64(1000), int64(-5), int64(3), uint8(4), uint8(9), false, false)
	f.Add("\"<\\>& ", int64(math.MinInt64), int64(math.MaxInt64), int64(0), uint8(2), uint8(1), true, true)
	f.Add("\xff\xfe", int64(0), int64(0), int64(-1), uint8(0), uint8(0), true, false)
	minmax, _ := lattice.NewSchema(lattice.AggMin, lattice.AggMax)
	f.Fuzz(func(t *testing.T, traceID string, a, b, c int64, n, limit uint8, profile, prime bool) {
		rows := make([]workload.Row, n%9)
		for i := range rows {
			k := int64(i)
			rows[i] = workload.Row{Group: []int64{a + k, b - k}, Sum: b * k, Count: c + k, Extra: []int64{a ^ k, c}}
		}
		sqls := []string{
			fmt.Sprintf("SELECT partkey, suppkey, sum(q), count(*), avg(q), min(q), max(q) FROM f GROUP BY partkey, suppkey LIMIT %d", limit),
			"SELECT suppkey, max(q) FROM f GROUP BY partkey, suppkey",
		}
		wc := wireCase{schema: minmax, rows: rows, batch: sqls, profile: profile, traceID: traceID}
		if prime {
			wc.prime = sqls[:1]
		}
		checkWire(t, wc)
	})
}

// TestUnstoredExtraIsBadSQL: a MIN or MAX the warehouse does not store is
// the statement's error, reported as 400 bad_sql before admission whether
// or not the answer would be empty — and nothing is cached.
func TestUnstoredExtraIsBadSQL(t *testing.T) {
	w := wideWarehouse(t)
	_, ts := newTestServer(t, w, Config{})
	for _, part := range []int{1000, 999} { // a 1-row answer, then an empty one
		sql := fmt.Sprintf("SELECT partkey, min(quantity) FROM facts WHERE partkey = %d GROUP BY partkey", part)
		for attempt := 0; attempt < 2; attempt++ {
			status, envelope, raw, _ := postQuery(t, ts.URL, sql)
			if status != http.StatusBadRequest || envelope.Error.Code != CodeBadSQL {
				t.Fatalf("partkey = %d, attempt %d: status %d: %s; want 400 %s", part, attempt, status, raw, CodeBadSQL)
			}
		}
	}
	if _, _, err := w.QuerySQL("SELECT partkey, max(quantity) FROM facts WHERE partkey = 999 GROUP BY partkey"); err == nil ||
		!strings.Contains(err.Error(), "not stored") {
		t.Fatalf("QuerySQL on an empty answer: err = %v, want the not-stored error", err)
	}
}
