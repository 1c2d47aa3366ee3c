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
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/workload"
)

// memRows is an in-memory fact iterator.
type memRows struct {
	cols    []cubetree.Attr
	rows    [][]int64
	measure []int64
	i       int
}

func (s *memRows) Next() bool { s.i++; return s.i <= len(s.rows) }
func (s *memRows) Value(a cubetree.Attr) (int64, error) {
	for j, c := range s.cols {
		if c == a {
			return s.rows[s.i-1][j], nil
		}
	}
	return 0, fmt.Errorf("no column %q", a)
}
func (s *memRows) Measure() int64 { return s.measure[s.i-1] }

var testAttrs = []cubetree.Attr{"custkey", "partkey", "suppkey"}

var testDomains = map[cubetree.Attr]int64{"partkey": 12, "suppkey": 8, "custkey": 10}

// synthFacts generates n deterministic facts over the test domains.
func synthFacts(n int, seed uint64) *memRows {
	s := &memRows{cols: []cubetree.Attr{"partkey", "suppkey", "custkey"}}
	state := seed ^ 0x9e3779b97f4a7c15
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 16
	}
	for i := 0; i < n; i++ {
		s.rows = append(s.rows, []int64{
			int64(next()%12) + 1, int64(next()%8) + 1, int64(next()%10) + 1,
		})
		s.measure = append(s.measure, int64(next()%1000)-200)
	}
	return s
}

func clusterViews() []cubetree.View {
	return []cubetree.View{
		cubetree.NewView("top", "partkey", "suppkey", "custkey"),
		cubetree.NewView("ps", "partkey", "suppkey"),
		cubetree.NewView("c", "custkey"),
		cubetree.NewView("all"),
	}
}

// cluster is a single-process reference warehouse plus an n-shard live
// cluster over real TCP, built from the same facts.
type cluster struct {
	single  *cubetree.Warehouse
	coord   *dist.Coordinator
	workers []*dist.Worker
	whs     []*cubetree.Warehouse
	addrs   []string
}

func startCluster(t *testing.T, n int, facts *memRows, o *obs.Observer) *cluster {
	t.Helper()
	dir := t.TempDir()
	cfgFor := func(sub string) cubetree.Config {
		return cubetree.Config{
			Dir:           filepath.Join(dir, sub),
			Domains:       testDomains,
			ExtraMeasures: []cubetree.Agg{lattice.AggMin, lattice.AggMax},
		}
	}
	cl := &cluster{}
	var err error
	allFacts := *facts
	cl.single, err = cubetree.Materialize(cfgFor("single"), clusterViews(), &allFacts)
	if err != nil {
		t.Fatal(err)
	}
	shardFacts := *facts
	docs, err := dist.Partition(&shardFacts, testAttrs, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		src, err := cubetree.CSVRows(bytes.NewReader(doc), dist.PartitionMeasure)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := cubetree.Materialize(cfgFor(fmt.Sprintf("shard%d", i)), clusterViews(), src)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		cl.whs = append(cl.whs, wh)
		wk := dist.NewWorker(cubetree.ShardBackend(wh), cubetree.ShardCSV, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go wk.Serve(ln)
		cl.workers = append(cl.workers, wk)
		cl.addrs = append(cl.addrs, ln.Addr().String())
	}
	cl.coord, err = dist.NewCoordinator(dist.CoordinatorConfig{
		Shards:       cl.addrs,
		Retries:      3,
		RetryBackoff: 10 * time.Millisecond,
		Obs:          o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.coord.Close()
		for _, wk := range cl.workers {
			wk.Close()
		}
		cl.single.Close()
		for _, wh := range cl.whs {
			wh.Close()
		}
	})
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
	cl := startCluster(t, 3, synthFacts(600, 1), nil)
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
	o := obs.New(obs.Options{})
	cl := startCluster(t, 3, synthFacts(600, 1), o)
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

	delta := synthFacts(250, 7)
	singleDelta := *delta
	if err := cl.single.Update(&singleDelta); err != nil {
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
	distDelta := *delta
	go func() { done <- cl.coord.Update(&distDelta) }()
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
	if n := o.Registry.Snapshot().Counters["dist_mixed_generation_total"]; n != 0 {
		t.Fatalf("saw %d mixed-generation scatters", n)
	}
	// A second refresh exercises commit idempotency paths from a clean slate.
	delta2 := synthFacts(50, 13)
	singleDelta2 := *delta2
	if err := cl.single.Update(&singleDelta2); err != nil {
		t.Fatal(err)
	}
	distDelta2 := *delta2
	if err := cl.coord.Update(&distDelta2); err != nil {
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

// TestWorkerLoss kills one worker and checks that a query fails fast with a
// structured *ShardError naming the dead shard and carrying a retry hint —
// no hang, no silently partial result.
func TestWorkerLoss(t *testing.T) {
	cl := startCluster(t, 2, synthFacts(300, 3), nil)
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
	facts := synthFacts(200, 5)
	dir := t.TempDir()
	cfg := cubetree.Config{Dir: filepath.Join(dir, "wh"), Domains: testDomains}
	docs, err := dist.Partition(facts, testAttrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cubetree.CSVRows(bytes.NewReader(docs[0]), dist.PartitionMeasure)
	if err != nil {
		t.Fatal(err)
	}
	wh, err := cubetree.Materialize(cfg, clusterViews(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()

	// Reserve an address, release it, and only re-listen after a delay; the
	// coordinator's first dials get connection-refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	wk := dist.NewWorker(cubetree.ShardBackend(wh), cubetree.ShardCSV, nil)
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
	cl := startCluster(t, 1, synthFacts(50, 11), nil)
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
