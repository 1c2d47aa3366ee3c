package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"testing"

	"cubetree"
)

// wideWarehouse answers the allocBudgetBodies statements with 24 rows whose
// every value is ≥ 1000, so no cell comes from strconv's small-integer table.
func wideWarehouse(tb testing.TB) *cubetree.Warehouse {
	tb.Helper()
	src := &wtRows{cols: []cubetree.Attr{"partkey", "custkey"}}
	for k := int64(0); k < 24; k++ {
		for c := int64(1); c <= 2; c++ {
			src.rows = append(src.rows, []int64{1000 + k, c})
			src.measure = append(src.measure, 1000+7*k)
		}
	}
	w, err := cubetree.Materialize(
		cubetree.Config{
			Dir:     filepath.Join(tb.TempDir(), "wh"),
			Domains: map[cubetree.Attr]int64{"partkey": 1100, "custkey": 3},
		},
		[]cubetree.View{
			cubetree.NewView("pc", "partkey", "custkey"),
			cubetree.NewView("p", "partkey"),
			cubetree.NewView("all"),
		},
		src,
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	return w
}

// allocBudgetBodies returns n /query envelopes that all answer the same 24
// rows under n distinct cache keys (the LIMIT differs and never binds), so
// cycling through them misses the result cache on every request.
func allocBudgetBodies(n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"sql":"SELECT partkey, sum(quantity) FROM facts GROUP BY partkey LIMIT %d"}`, 1000+i))
	}
	return bodies
}

// serveAllocs is the mean allocation count of serving next() through h on an
// httptest request and recorder, minus what the harness itself allocates:
// building the request and recorder, and writing the same headers and body
// into the recorder. What remains is the server's own cost per request.
func serveAllocs(t *testing.T, h http.Handler, next func() []byte) float64 {
	t.Helper()
	const runs = 200
	serve := func(h http.Handler) float64 {
		return testing.AllocsPerRun(runs, func() {
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(next()))
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(next())))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if n := bytes.Count(rec.Body.Bytes(), []byte(`],[`)) + 1; n != 24 {
		t.Fatalf("answer has %d rows, want 24: %s", n, rec.Body)
	}
	body := rec.Body.Bytes()
	harness := serve(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	return serve(h) - harness
}

// TestQueryHandlerAllocBudget pins the front door's per-request heap cost on
// a 24-row answer: a cache miss parses, plans, scans and encodes; a cache
// hit parses and copies the stored encoded answer.
func TestQueryHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := New(Config{Store: wideWarehouse(t), CacheEntries: 16})

	bodies := allocBudgetBodies(1000)
	i := 0
	miss := serveAllocs(t, s.Handler(), func() []byte { i++; return bodies[i%len(bodies)] })
	hit := serveAllocs(t, s.Handler(), func() []byte { return bodies[0] })
	t.Logf("allocs per request: miss %.1f, hit %.1f", miss, hit)
	if miss > 50 {
		t.Errorf("cache miss: %.1f allocs per request, budget 50", miss)
	}
	if hit > 35 {
		t.Errorf("cache hit: %.1f allocs per request, budget 35", hit)
	}
}

// BenchmarkServeQuery serves the 24-row answer through Server.Handler(),
// with every request a cache miss or every request a hit.
func BenchmarkServeQuery(b *testing.B) {
	s := New(Config{Store: wideWarehouse(b), CacheEntries: 16})
	bodies := allocBudgetBodies(1000)
	for _, bc := range []struct {
		name string
		next func(i int) []byte
	}{
		{"miss", func(i int) []byte { return bodies[i%len(bodies)] }},
		{"hit", func(int) []byte { return bodies[0] }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bc.next(i))))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
