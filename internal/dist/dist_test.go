package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/server"
	"cubetree/internal/workload"
)

// testDomains, like a TPC-D catalog, has an attribute no view reads
// (custnation): a fact need not carry it.
var testDomains = map[cubetree.Attr]int64{"partkey": 12, "suppkey": 8, "custkey": 10, "custnation": 25}

// factAttrs orders the test facts' Group columns: custkey, partkey, suppkey.
var factAttrs = dist.ViewAttrs(clusterViews())

// synthFacts generates n deterministic facts with keys drawn from domains,
// as rows for dist.Facts over factAttrs.
func synthFacts(n int, seed uint64, domains map[cubetree.Attr]int64) []cubetree.Row {
	state := seed ^ 0x9e3779b97f4a7c15
	next := func(dom int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state >> 16 % uint64(dom))
	}
	rows := make([]cubetree.Row, n)
	for i := range rows {
		part, supp, cust := next(domains["partkey"])+1, next(domains["suppkey"])+1, next(domains["custkey"])+1
		rows[i] = cubetree.Row{Group: []int64{cust, part, supp}, Sum: next(1000) - 200, Count: 1}
	}
	return rows
}

func clusterViews() []cubetree.View {
	return []cubetree.View{
		cubetree.NewView("top", "partkey", "suppkey", "custkey"),
		cubetree.NewView("ps", "partkey", "suppkey"),
		cubetree.NewView("c", "custkey"),
		cubetree.NewView("all"),
	}
}

// loadShards splits facts over n shards the way the coordinator splits a
// delta, and materializes each shard's slice under views with cfg(i). The
// caller closes the warehouses.
func loadShards(tb testing.TB, facts cubetree.RowIter, n int, views []cubetree.View, cfg func(i int) cubetree.Config) []*cubetree.Warehouse {
	tb.Helper()
	attrs := dist.ViewAttrs(views)
	parts, err := dist.Partition(facts, attrs, n)
	if err != nil {
		tb.Fatal(err)
	}
	whs := make([]*cubetree.Warehouse, n)
	for i, part := range parts {
		if whs[i], err = cubetree.Materialize(cfg(i), views, dist.Facts(attrs, part)); err != nil {
			tb.Fatalf("shard %d: %v", i, err)
		}
	}
	return whs
}

// serveShards serves each warehouse from a worker on a loopback listener —
// worker i observed by wobs[i] when wobs is not nil — and closes the workers,
// then the warehouses, when the test ends.
func serveShards(tb testing.TB, whs []*cubetree.Warehouse, wobs []*obs.Observer) (workers []*dist.Worker, addrs []string) {
	tb.Helper()
	tb.Cleanup(func() {
		for _, wk := range workers {
			wk.Close()
		}
		for _, wh := range whs {
			wh.Close()
		}
	})
	for i, wh := range whs {
		var o *obs.Observer
		if wobs != nil {
			o = wobs[i]
		}
		wk := dist.NewWorker(cubetree.ShardBackend(wh), o)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go wk.Serve(ln)
		workers = append(workers, wk)
		addrs = append(addrs, ln.Addr().String())
	}
	return workers, addrs
}

// cluster is a single-process reference warehouse plus an n-shard live
// cluster over real TCP, built from the same facts. Every process — the
// coordinator and each worker — has its own observer, the shape needed to
// follow one trace ID across all of them.
type cluster struct {
	single    *cubetree.Warehouse
	coord     *dist.Coordinator
	workers   []*dist.Worker
	addrs     []string
	coordObs  *obs.Observer
	workerObs []*obs.Observer
}

func startCluster(t *testing.T, n int, domains map[cubetree.Attr]int64, facts []cubetree.Row) *cluster {
	t.Helper()
	dir := t.TempDir()
	cfgFor := func(sub string) cubetree.Config {
		return cubetree.Config{
			Dir:           filepath.Join(dir, sub),
			Domains:       domains,
			ExtraMeasures: []cubetree.Agg{lattice.AggMin, lattice.AggMax},
		}
	}
	cl := &cluster{coordObs: obs.New(obs.Options{})}
	var err error
	cl.single, err = cubetree.Materialize(cfgFor("single"), clusterViews(), dist.Facts(factAttrs, facts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.single.Close() })
	whs := loadShards(t, dist.Facts(factAttrs, facts), n, clusterViews(), func(i int) cubetree.Config {
		return cfgFor(fmt.Sprintf("shard%d", i))
	})
	for _, wh := range whs {
		wo := obs.New(obs.Options{})
		wh.SetObserver(wo)
		cl.workerObs = append(cl.workerObs, wo)
	}
	cl.workers, cl.addrs = serveShards(t, whs, cl.workerObs)
	cl.coord, err = dist.NewCoordinator(dist.CoordinatorConfig{
		Shards:       cl.addrs,
		Retries:      3,
		RetryBackoff: 10 * time.Millisecond,
		Obs:          cl.coordObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.coord.Close() })
	return cl
}

// testQueries builds a mixed batch over every node: random equality slices,
// range slices, and the bare group-by of each node.
func testQueries(perNode int) []cubetree.Query {
	gen := workload.NewGenerator(99, map[lattice.Attr]int64(testDomains))
	nodes := [][]lattice.Attr{
		{"partkey", "suppkey", "custkey"},
		{"partkey", "suppkey"},
		{"custkey"},
		{},
	}
	var qs []cubetree.Query
	for _, node := range nodes {
		qs = append(qs, cubetree.Query{Node: append([]lattice.Attr(nil), node...)})
		for i := 0; i < perNode; i++ {
			if i%3 == 2 {
				qs = append(qs, gen.ForNodeRanges(node, 0.4))
			} else {
				qs = append(qs, gen.ForNode(node))
			}
		}
	}
	return qs
}

// TestClusterEquivalence is the acceptance check: the same query batch
// against a 3-shard cluster and a single-process warehouse over the same
// facts returns identical sorted rows, including the MIN/MAX/COUNT
// measures, both one query at a time and as a scattered batch.
func TestClusterEquivalence(t *testing.T) {
	cl := startCluster(t, 3, testDomains, synthFacts(600, 1, testDomains))
	qs := testQueries(12)
	ctx := context.Background()
	for i, q := range qs {
		want, err := cl.single.QueryProfiledCtx(ctx, q, nil)
		if err != nil {
			t.Fatalf("query %d single: %v", i, err)
		}
		got, err := cl.coord.QueryProfiledCtx(ctx, q, nil)
		if err != nil {
			t.Fatalf("query %d dist: %v", i, err)
		}
		if !workload.EqualRows(got, want) {
			t.Fatalf("query %d %v:\n dist   %v\n single %v", i, q, got, want)
		}
	}
	wantBatch, err := cl.single.QueryBatchCtx(ctx, qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := cl.coord.QueryBatchCtx(ctx, qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !workload.EqualRows(gotBatch[i], wantBatch[i]) {
			t.Fatalf("batch query %d: dist %v, single %v", i, gotBatch[i], wantBatch[i])
		}
	}
}

// TestClusterRefresh checks the distributed refresh end to end: results
// after a fanned-out Update match a single-process Update over the same
// delta, the logical generation advances once per shard, and queries racing
// the refresh observe the old totals or the new totals — never a mix of
// shard generations (the mixed-generation counter stays zero).
func TestClusterRefresh(t *testing.T) {
	cl := startCluster(t, 3, testDomains, synthFacts(600, 1, testDomains))
	ctx := context.Background()
	probes := []cubetree.Query{
		{Node: []lattice.Attr{}},
		{Node: []lattice.Attr{"partkey", "suppkey"}, Fixed: []cubetree.Pred{{Attr: "partkey", Value: 1}}},
	}
	var olds, news [][]workload.Row
	for _, q := range probes {
		rows, err := cl.coord.QueryProfiledCtx(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		olds = append(olds, rows)
	}
	genBefore := cl.coord.Generation()

	delta := synthFacts(250, 7, testDomains)
	if err := cl.single.Update(dist.Facts(factAttrs, delta)); err != nil {
		t.Fatal(err)
	}
	for _, q := range probes {
		rows, err := cl.single.QueryProfiledCtx(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		news = append(news, rows)
	}

	done := make(chan error, 1)
	go func() { done <- cl.coord.Update(dist.Facts(factAttrs, delta)) }()
	// Race probes against the refresh: every answer must be exactly the old
	// result or exactly the new one.
	for racing := true; racing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			racing = false
		default:
			for i, q := range probes {
				rows, err := cl.coord.QueryProfiledCtx(ctx, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !workload.EqualRows(rows, olds[i]) && !workload.EqualRows(rows, news[i]) {
					t.Fatalf("mid-refresh probe %d saw a mixed-generation result:\n got %v\n old %v\n new %v",
						i, rows, olds[i], news[i])
				}
			}
		}
	}

	for i, q := range probes {
		rows, err := cl.coord.QueryProfiledCtx(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.EqualRows(rows, news[i]) {
			t.Fatalf("post-refresh probe %d: dist %v, single %v", i, rows, news[i])
		}
	}
	if got := cl.coord.Generation(); got != genBefore+3 {
		t.Fatalf("logical generation = %d, want %d (one bump per shard)", got, genBefore+3)
	}
	if n := cl.coordObs.Registry.Snapshot().Counters["dist_mixed_generation_total"]; n != 0 {
		t.Fatalf("saw %d mixed-generation scatters", n)
	}
	// A second refresh exercises commit idempotency paths from a clean slate.
	delta2 := synthFacts(50, 13, testDomains)
	if err := cl.single.Update(dist.Facts(factAttrs, delta2)); err != nil {
		t.Fatal(err)
	}
	if err := cl.coord.Update(dist.Facts(factAttrs, delta2)); err != nil {
		t.Fatal(err)
	}
	want, err := cl.single.QueryProfiledCtx(ctx, probes[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.coord.QueryProfiledCtx(ctx, probes[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !workload.EqualRows(got, want) {
		t.Fatalf("after second refresh: dist %v, single %v", got, want)
	}
}

// TestClusterRefreshOverHTTP posts CSV deltas through the HTTP front door of
// a 2-shard cluster. A delta in dbgen's shape — extra columns, and none for
// custnation, which the catalog has and no view reads — commits on every
// shard. One with a bad record after good ones, or without a column the views
// read, answers 400 and commits nothing on any shard.
func TestClusterRefreshOverHTTP(t *testing.T) {
	cl := startCluster(t, 2, testDomains, synthFacts(300, 2, testDomains))
	ts := httptest.NewServer(server.New(server.Config{Store: cl.coord}).Handler())
	defer ts.Close()
	gen := cl.coord.Generation()
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		// The three facts reach both shards, so both generations move.
		{"dbgen shape", "partkey,suppkey,custkey,month,year,quantity,brand,type\n" +
			"3,2,5,11,4,28,20,134\n7,8,1,8,7,30,12,113\n12,1,10,1,2,-4,3,9\n", http.StatusOK},
		{"bad record", "partkey,suppkey,custkey,quantity\n1,1,1,100\n2,1,1,100\nx,1,1,5\n", http.StatusBadRequest},
		{"no custkey", "partkey,suppkey,quantity\n1,1,5\n", http.StatusBadRequest},
	} {
		res, err := http.Post(ts.URL+"/admin/refresh?measure=quantity", "text/csv", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != tc.status {
			t.Fatalf("%s: refresh = %d, want %d", tc.name, res.StatusCode, tc.status)
		}
		if tc.status == http.StatusOK {
			src, _ := cubetree.CSVRows(strings.NewReader(tc.body), "quantity")
			if err := cl.single.Update(src); err != nil {
				t.Fatal(err)
			}
			gen += 2
		}
		qs := testQueries(4)
		got, err := cl.coord.QueryBatchCtx(context.Background(), qs, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cl.single.QueryBatchCtx(context.Background(), qs, 1)
		for i := range qs {
			if !workload.EqualRows(got[i], want[i]) {
				t.Fatalf("%s: query %v differs from the single warehouse", tc.name, qs[i])
			}
		}
		if g := cl.coord.Generation(); g != gen {
			t.Fatalf("%s: generation %d, want %d", tc.name, g, gen)
		}
	}
}

// TestWorkerLoss kills one worker and checks that a query fails fast with a
// structured *ShardError naming the dead shard and carrying a retry hint —
// no hang, no silently partial result.
func TestWorkerLoss(t *testing.T) {
	cl := startCluster(t, 2, testDomains, synthFacts(300, 3, testDomains))
	if err := cl.workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := cl.coord.QueryProfiledCtx(context.Background(), cubetree.Query{Node: []lattice.Attr{}}, nil)
	elapsed := time.Since(start)
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *dist.ShardError", err)
	}
	if se.Addr != cl.addrs[1] {
		t.Fatalf("ShardError.Addr = %s, want %s", se.Addr, cl.addrs[1])
	}
	if se.Attempts != 4 { // Retries=3 plus the initial attempt
		t.Fatalf("ShardError.Attempts = %d, want 4", se.Attempts)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("ShardError.RetryAfter = %v, want a positive hint", se.RetryAfter)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("worker-loss query took %v, want fast structured failure", elapsed)
	}
	// The surviving shard keeps answering once the dead one is removed from
	// the debug table's perspective; DebugInfo must name the failure.
	d := cl.coord.DebugInfo()
	if len(d.Shards) != 2 || d.Shards[1].LastError == "" {
		t.Fatalf("debug info missing shard error: %+v", d)
	}
}

// TestConnectBackoff starts a worker only after the coordinator begins
// dialing: the transient connect failures must be absorbed by retry with
// backoff rather than surfacing.
func TestConnectBackoff(t *testing.T) {
	dir := t.TempDir()
	wh := loadShards(t, dist.Facts(factAttrs, synthFacts(200, 5, testDomains)), 1, clusterViews(), func(int) cubetree.Config {
		return cubetree.Config{Dir: filepath.Join(dir, "wh"), Domains: testDomains}
	})[0]
	defer wh.Close()

	// Reserve an address, release it, and only re-listen after a delay; the
	// coordinator's first dials get connection-refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	wk := dist.NewWorker(cubetree.ShardBackend(wh), nil)
	defer wk.Close()
	go func() {
		time.Sleep(250 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		wk.Serve(ln2)
	}()

	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Shards:       []string{addr},
		Retries:      8,
		RetryBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("coordinator did not ride out connect failures: %v", err)
	}
	defer coord.Close()
	rows, err := coord.QueryProfiledCtx(context.Background(), cubetree.Query{Node: []lattice.Attr{}}, nil)
	if err != nil || len(rows) != 1 {
		t.Fatalf("query after backoff = %v, %v", rows, err)
	}
}

// serveV1Stub accepts connections and speaks protocol version 1 framing by
// hand — the header layout every version shares, JSON payloads — answering
// whatever it is sent with a v1 stats reply.
func serveV1Stub(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var hdr [18]byte
				for {
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					n := binary.BigEndian.Uint32(hdr[14:18])
					if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
						return
					}
					body := `{"generation":1,"views":[{"name":"all","attrs":[]}],"domains":{},"schema":["sum","count"],"points":1,"bytes":64}`
					hdr[4], hdr[5] = 1, byte(dist.FrameStatsReply)
					binary.BigEndian.PutUint32(hdr[14:18], uint32(len(body)))
					if _, err := conn.Write(append(hdr[:], body...)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestOldProtocolWorkerRefused pins the mixed-version contract: a worker
// speaking protocol version 1 is refused at connect with one attempt — not
// ridden through the retry budget's back-offs — and the error names the
// shard and both versions.
func TestOldProtocolWorkerRefused(t *testing.T) {
	ln := serveV1Stub(t)
	start := time.Now()
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Shards: []string{ln.Addr().String()}})
	elapsed := time.Since(start)
	if err == nil {
		coord.Close()
		t.Fatal("coordinator accepted a v1 worker")
	}
	var se *dist.ShardError
	if !errors.As(err, &se) || se.Addr != ln.Addr().String() || se.Code != dist.ErrCodeBadProtocol || se.Attempts != 1 {
		t.Fatalf("err = %v (%+v), want a one-attempt %s *ShardError naming the shard", err, se, dist.ErrCodeBadProtocol)
	}
	var ve *dist.VersionError
	if !errors.As(err, &ve) || ve.Got != 1 || ve.Want != dist.Version {
		t.Fatalf("err = %v, want a *VersionError{Got: 1, Want: %d}", err, dist.Version)
	}
	for _, want := range []string{ln.Addr().String(), "version 1", fmt.Sprintf("speaks %d", dist.Version)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// The default budget's back-offs alone (50+100+200+400 ms) would take 750 ms.
	if elapsed > 400*time.Millisecond {
		t.Fatalf("refusal took %v: the version mismatch was retried", elapsed)
	}
}

// TestWorkerRefusesOtherVersion sends a real worker a well-formed header of
// another version: it must answer exactly one bad_protocol error frame
// echoing the request ID, then close — and a coordinator handed that frame
// must not retry either.
func TestWorkerRefusesOtherVersion(t *testing.T) {
	cl := startCluster(t, 1, testDomains, synthFacts(50, 11, testDomains))
	conn, err := net.Dial("tcp", cl.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var req bytes.Buffer
	if err := dist.EncodeFrame(&req, dist.Frame{Type: dist.FrameHealth, ID: 77, Payload: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	wire := req.Bytes()
	wire[4] = 1
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	f, err := dist.DecodeFrame(conn)
	if err != nil {
		t.Fatalf("no refusal frame: %v", err)
	}
	var ep struct {
		Code, Msg string
		Retryable bool
	}
	if err := json.Unmarshal(f.Payload, &ep); err != nil {
		t.Fatal(err)
	}
	if f.Type != dist.FrameError || f.ID != 77 || ep.Code != dist.ErrCodeBadProtocol || ep.Retryable {
		t.Fatalf("refusal = %s id %d %+v", f.Type, f.ID, ep)
	}
	if _, err := dist.DecodeFrame(conn); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the worker to close", err)
	}

	// The coordinator's side of the same frame: permanent, one attempt.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if in, err := dist.DecodeFrame(c); err == nil {
					dist.EncodeFrame(c, dist.Frame{Type: dist.FrameError, ID: in.ID, Payload: f.Payload})
				}
			}(c)
		}
	}()
	_, err = dist.NewCoordinator(dist.CoordinatorConfig{Shards: []string{ln.Addr().String()}, RetryBackoff: time.Second})
	var se *dist.ShardError
	if !errors.As(err, &se) || se.Code != dist.ErrCodeBadProtocol || se.Attempts != 1 {
		t.Fatalf("err = %v, want a one-attempt %s *ShardError", err, dist.ErrCodeBadProtocol)
	}
}
