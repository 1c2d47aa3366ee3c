package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/obs"
)

// cannedTarget serves a frozen copy of every endpoint ctop polls, so collect
// and summarize can be checked field by field without a live cluster.
func cannedTarget(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch {
		case q.Get("latest") != "":
			fmt.Fprint(w, `{"at_unix_ns": 1000, "snapshot": {"gauges": {
				"generation": 4, "dist_scraped_shards": 2, "dist_shards": 2,
				"process_uptime_seconds": 90,
				"refresh_active": 1, "refresh_progress_permille": 250, "refresh_eta_ns": 3000000000}}}`)
		case q.Get("metric") == "query_total":
			fmt.Fprint(w, `{"metric":"query_total","kind":"counter","window_s":10,"cumulative":90,
				"points":[{"t_ms":1,"delta":40,"rate":4},{"t_ms":2,"delta":50,"rate":5}]}`)
		case q.Get("metric") == "query_latency_ns":
			fmt.Fprint(w, `{"metric":"query_latency_ns","kind":"histogram","window_s":10,
				"points":[{"t_ms":1,"p50":300000,"p99":900000},{"t_ms":2,"p50":400000,"p99":1200000}]}`)
		case q.Get("metric") == "query_errors_total":
			fmt.Fprint(w, `{"metric":"query_errors_total","kind":"counter","window_s":10,"cumulative":5,
				"points":[{"t_ms":2,"delta":5,"rate":0.5}]}`)
		default:
			http.Error(w, `{"error":"unknown metric"}`, http.StatusNotFound)
		}
	})
	mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"generation":4,"generation_skew":0,
			"shards":[
			  {"addr":"127.0.0.1:9001","generation":2,"in_flight":1,"p95_latency_ns":700000,
			   "pool_resident_frames":12,"pool_capacity_frames":64,
			   "metrics":{"counters":{"query_total":45}}},
			  {"addr":"127.0.0.1:9002","generation":2,"straggler":true,"error":"dial: connection refused"}],
			"fleet":{"counters":{"query_total":45},"gauges":{}}}`)
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"taken_unix_ms":2,"objectives":[
			{"name":"query-p99-latency","target":0.99,"burning":true,
			 "short":{"burn_rate":2.5,"budget_remaining":-1.5}},
			{"name":"query-error-ratio","target":0.999,"burning":false,
			 "short":{"burn_rate":0.1,"budget_remaining":0.9}}],
			"violations":["query-p99-latency: burn 2.5x"]}`)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"degraded","generation":4,"violations":["query-p99-latency: burn 2.5x"]}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCollectAndSummarizeCanned(t *testing.T) {
	srv := cannedTarget(t)
	st, err := collect(newClient(srv.URL, time.Second), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep := summarize(st)

	if rep.Health != "degraded" {
		t.Errorf("health = %q, want degraded", rep.Health)
	}
	if rep.Fleet.QPS != 5 {
		t.Errorf("qps = %v, want 5 (newest point's rate)", rep.Fleet.QPS)
	}
	if rep.Fleet.P99NS != 1200000 {
		t.Errorf("p99 = %d, want 1200000", rep.Fleet.P99NS)
	}
	if rep.Fleet.ErrorRate != 0.1 { // 5 errors / 50 queries in the newest window
		t.Errorf("error rate = %v, want 0.1", rep.Fleet.ErrorRate)
	}
	if rep.Fleet.Generation != 4 || rep.Fleet.Shards != 2 || rep.Fleet.ScrapedShards != 2 {
		t.Errorf("fleet identity = %+v", rep.Fleet)
	}
	if rep.Refresh == nil || !rep.Refresh.Active || rep.Refresh.ProgressPermille != 250 {
		t.Errorf("refresh = %+v", rep.Refresh)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(rep.Shards))
	}
	if rep.Shards[0].Addr != "127.0.0.1:9001" || rep.Shards[0].QueriesServed != 45 {
		t.Errorf("shard 0 = %+v", rep.Shards[0])
	}
	if !rep.Shards[1].Straggler || rep.Shards[1].ScrapeError == "" {
		t.Errorf("shard 1 should be a straggler with a scrape error: %+v", rep.Shards[1])
	}
	if len(rep.SLO) != 2 || !rep.SLO[0].Burning || rep.SLO[0].BudgetRemaining != -1.5 {
		t.Errorf("slo = %+v", rep.SLO)
	}

	var frame strings.Builder
	render(&frame, st, rep, 30*time.Second, true)
	out := frame.String()
	for _, want := range []string{
		"health=degraded", "127.0.0.1:9001", "127.0.0.1:9002",
		"BURNING 2.5x", "straggler", "refresh", "q+Enter quit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

// A single-process target has no /debug/cluster or /debug/slo; both sections
// must degrade to absent, not fail the poll.
func TestCollectToleratesMissingOptionalEndpoints(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("latest") != "" {
			http.Error(w, `{"error":"no samples yet"}`, http.StatusNotFound)
			return
		}
		fmt.Fprint(w, `{"metric":"q","kind":"counter","points":[]}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	st, err := collect(newClient(srv.URL, time.Second), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster != nil || st.SLO != nil || st.Health != nil || st.Latest != nil {
		t.Errorf("optional sections should be nil: %+v", st)
	}
	rep := summarize(st)
	if rep.Health != "unknown" || rep.Fleet.QPS != 0 {
		t.Errorf("report = %+v", rep)
	}
}

// A target without self-monitoring (-scrape-interval 0) must produce a
// pointed error, since ctop is useless without the history ring.
func TestCollectRequiresHistory(t *testing.T) {
	srv := httptest.NewServer(http.NewServeMux()) // 404 everywhere
	defer srv.Close()
	_, err := collect(newClient(srv.URL, time.Second), time.Second)
	if err == nil || !strings.Contains(err.Error(), "-scrape-interval") {
		t.Fatalf("err = %v, want hint about -scrape-interval", err)
	}
}

// TestOnceAgainstLiveCluster is the acceptance check: a real in-process
// 2-worker cluster behind a coordinator, polled exactly the way
// `ctop -once -json` does, must yield per-shard rows plus a fleet rollup
// with QPS > 0.
func TestOnceAgainstLiveCluster(t *testing.T) {
	dir := t.TempDir()
	views := []cubetree.View{
		cubetree.NewView("by-product-region", "product", "region"),
		cubetree.NewView("total"),
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		fact := func(product, region, qty int64) cubetree.Row {
			return cubetree.Row{Group: []int64{product, region}, Sum: qty, Count: 1}
		}
		wh, err := cubetree.Materialize(cubetree.Config{
			Dir:     filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			Domains: map[cubetree.Attr]int64{"product": 3, "region": 2},
		}, views, dist.Facts(dist.ViewAttrs(views), []cubetree.Row{
			fact(1, 1, 10), fact(1, 2, 5), fact(2, 1, 7), fact(int64(i)+1, 1, 4),
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer wh.Close()
		wo := cubetree.NewObserver(cubetree.ObserverOptions{})
		wh.SetObserver(wo)
		wk := dist.NewWorker(cubetree.ShardBackend(wh), wo)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go wk.Serve(ln)
		defer wk.Close()
		addrs = append(addrs, ln.Addr().String())
	}

	o := cubetree.NewObserver(cubetree.ObserverOptions{})
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Shards:       addrs,
		Retries:      3,
		RetryBackoff: 10 * time.Millisecond,
		Obs:          o,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Same monitoring shape as cubetreed's coordinator path, but sampled by
	// hand so the test is deterministic: one fleet sample before traffic, one
	// after. The ring is never started — a scraper goroutine's first sample
	// would race the traffic below, which takes about a millisecond.
	h := obs.NewHistory(obs.HistoryOptions{
		Interval: time.Hour,
		Source: func() obs.Snapshot {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return coord.FleetSnapshot(ctx)
		},
	})
	o.History = h
	o.SetSLOs(nil)
	h.Sample()

	for i := 0; i < 20; i++ {
		if _, err := coord.QueryProfiledCtx(context.Background(), cubetree.Query{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.Sample()

	srv := httptest.NewServer(cubetree.CoordinatorDebugMux(coord, o))
	defer srv.Close()

	// A window at or below the ring interval resolves to stride 1, pairing
	// our two hand-driven samples.
	st, err := collect(newClient(srv.URL, 5*time.Second), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep := summarize(st)

	if rep.Fleet.QPS <= 0 {
		t.Errorf("fleet QPS = %v, want > 0", rep.Fleet.QPS)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("shard rows = %d, want 2", len(rep.Shards))
	}
	for i, sh := range rep.Shards {
		if sh.Addr != addrs[i] {
			t.Errorf("shard %d addr = %q, want %q", i, sh.Addr, addrs[i])
		}
		if sh.ScrapeError != "" {
			t.Errorf("shard %d scrape error: %s", i, sh.ScrapeError)
		}
	}
	if rep.Fleet.Shards != 2 || rep.Fleet.ScrapedShards != 2 {
		t.Errorf("fleet coverage = %d/%d, want 2/2", rep.Fleet.ScrapedShards, rep.Fleet.Shards)
	}
	if len(rep.SLO) < 2 {
		t.Errorf("slo objectives = %d, want >= 2 defaults", len(rep.SLO))
	}

	// The -json body must round-trip with the sections CI greps for.
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"qps"`, `"shards"`, addrs[0], addrs[1]} {
		if !strings.Contains(string(body), want) {
			t.Errorf("json report missing %s: %s", want, body)
		}
	}
}

func TestBarAndFmtNS(t *testing.T) {
	if got := bar(0.5, 4); got != "[██··]" {
		t.Errorf("bar(0.5,4) = %q", got)
	}
	if got := bar(-2, 4); got != "[····]" {
		t.Errorf("bar(-2,4) = %q (negative budget renders empty)", got)
	}
	if got := bar(2, 4); got != "[████]" {
		t.Errorf("bar(2,4) = %q", got)
	}
	cases := map[int64]string{0: "-", 500: "500ns", 2500: "2.5µs", 3_500_000: "3.5ms", 2_000_000_000: "2.00s"}
	for ns, want := range cases {
		if got := fmtNS(ns); got != want {
			t.Errorf("fmtNS(%d) = %q, want %q", ns, got, want)
		}
	}
}
