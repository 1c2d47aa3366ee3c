package main

// workloads.go: the five workloads and the two kinds of run. An untraced
// run (-trace 0) sets the system up, warms it, measures one closed-loop
// window and one refresh, and reports the end-to-end metrics. A traced run
// (-trace 1) measures a short window with and without profiles, replays
// the list once from a defined pool state so page and point counts repeat
// exactly, refreshes under an observer, runs the layer ledger and reports
// the per-layer metrics. End-to-end numbers never come from a traced run.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"cubetree"
)

type front int

const (
	frontLibrary front = iota
	frontHTTP
	frontCluster
)

// spec is one workload. The names are permanent: later issues cite them.
type spec struct {
	name        string
	why         string // one line for BENCHMARK.json; README.md has the long form
	scan        bool   // the roll-up/range list instead of the slice list
	clients     int    // closed-loop clients; fixed, never derived from the host
	front       front
	coldPool    bool // pool of 3 % of the forest instead of one that fits
	refreshRead bool // the window is a writer refreshing beside one reader
}

var specs = []spec{
	{name: "slice_hot", clients: 2, front: frontLibrary,
		why: "in-process Fig. 13 slice mix on a pool that fits: per-query fixed cost (plan, R-tree descent, row emit) dominates and the pager only hits"},
	{name: "scan_cold", scan: true, clients: 1, front: frontLibrary, coldPool: true,
		why: "in-process roll-up/range mix on a pool of 3 % of the forest: the pager miss path and the leaf-scan kernel dominate, planning is noise"},
	{name: "serve_http", clients: 2, front: frontHTTP,
		why: "the slice list as SQL over keep-alive HTTP to a real cubetreed: slice_hot's engine work plus sqlish, server, JSON and observability"},
	{name: "serve_cluster", clients: 2, front: frontCluster,
		why: "the same SQL through a cubetreed coordinator over 2 hash-partitioned workers: its gap to serve_http is the cluster tax on wall clock"},
	{name: "refresh_read", clients: 1, front: frontLibrary, refreshRead: true,
		why: "10 successive 10 % increments through Warehouse.Update beside one reader: sequential merge-pack writes beside reads, and the generation swap"},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scale fixes the data size and the work lists. Pools are per tree: hotPool
// holds any tree whole; coldPool is 3 % of the forest's pages spread over
// its three trees (the paper's 32 MB pool to 1 GB of data).
type scale struct {
	name           string
	sf             float64
	sliceQueries   int
	scanQueries    int
	hotPool        int
	coldPool       int
	seconds        float64       // default measuring window
	warm           time.Duration // closed-loop warm-up before any window
	setups         int           // set-ups per untraced run; setup_s is their median
	postRefreshes  int           // increments applied after a query window
	readIncrements int           // increments refresh_read applies
	countedSlice   int           // slice-list prefix the counted pass replays
	countedScan    int           // scan-list prefix the counted pass replays
	ledgerReps     int
	// scanMinPoints and sliceMaxPoints are the workload-shape assertions on
	// the median points a query scans: scan_cold stays a scan, slice_hot a
	// slice.
	scanMinPoints  int64
	sliceMaxPoints int64
}

var (
	fullScale = scale{name: "full", sf: 0.05, sliceQueries: 8192, scanQueries: 2048, hotPool: 8192, coldPool: 24,
		seconds: 10, warm: 1500 * time.Millisecond, setups: 3, postRefreshes: 3, readIncrements: 10,
		countedSlice: 2048, countedScan: 500, ledgerReps: 3, scanMinPoints: 10000, sliceMaxPoints: 500}
	quickScale = scale{name: "quick", sf: 0.02, sliceQueries: 2048, scanQueries: 256, hotPool: 8192, coldPool: 10,
		seconds: 2, warm: 200 * time.Millisecond, setups: 1, postRefreshes: 1, readIncrements: 2,
		countedSlice: 256, countedScan: 50, ledgerReps: 1, scanMinPoints: 4000, sliceMaxPoints: 500}
)

const (
	defaultSeed = 1998
	// readerCheckEvery is the oracle stride for the refresh_read reader,
	// whose answers have to be folded per generation after the fact.
	readerCheckEvery = 512
	// postRefreshChecks is how many sampled requests are re-checked against
	// the grown fact table after the last refresh.
	postRefreshChecks = 32

	// sliceMinHit is the least pool hit ratio slice_hot may show in the
	// counted pass: its pool fits, so the pager only ever hits.
	sliceMinHit = 0.99
)

// result is what one run of one workload reports.
type result struct {
	workload   string
	traced     bool
	digest     string
	attempted  int
	failed     int
	problems   []string // oracle mismatches, failed requests, broken shape assertions
	metrics    map[string]float64
	p99Samples int
	traceFile  string
	spans      int
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// runner carries one workload run.
type runner struct {
	rd    *runDir
	sp    spec
	sc    scale
	in    *inputs
	orc   *oracle
	began time.Time
	res   *result
	logs  []*spanLog

	mu   sync.Mutex // guards want and res.problems
	want map[[2]int][]cubetree.Row
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.res.problems) < 20 {
		r.res.problems = append(r.res.problems, msg)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.sp.name, msg)
}

// expect is the oracle's answer to request i at a generation, folded once.
func (r *runner) expect(i, generation int) []cubetree.Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := [2]int{i, generation}
	rows, ok := r.want[key]
	if !ok {
		rows = r.orc.fold(r.in.list[i], generation)
		r.want[key] = rows
	}
	return rows
}

// prime folds every sampled request of the list at a generation ahead of
// time, so no fold runs inside a measured window.
func (r *runner) prime(generation int) {
	for i := 0; i < len(r.in.list); i += oracleEvery {
		r.expect(i, generation)
	}
}

// runWorkload performs one run: untraced for the end-to-end metrics, traced
// for the per-layer ones.
func runWorkload(rd *runDir, sp spec, sc scale, seed uint64, seconds float64, traced bool, traceOut string) (*result, error) {
	increments := sc.postRefreshes
	if sp.refreshRead {
		increments = sc.readIncrements
	}
	in := buildInputs(sc, sp, seed, increments)
	r := &runner{rd: rd, sp: sp, sc: sc, in: in, began: time.Now(), want: map[[2]int][]cubetree.Row{},
		res: &result{workload: sp.name, traced: traced, digest: in.digest, metrics: map[string]float64{}}}
	fmt.Fprintf(os.Stderr, "bench: %s: scale %s seed %d input_digest %s (%d facts, %d requests)\n",
		sp.name, sc.name, seed, in.digest, len(in.facts), len(in.list))
	if err := checkDigest(sc, sp, seed, in.digest); err != nil {
		return nil, err
	}
	r.orc = newOracle(in.facts, in.increments)
	r.prime(1)

	dir := filepath.Join(rd.path, fmt.Sprintf("%s-%d", sp.name, time.Now().UnixNano()))
	defer os.RemoveAll(dir)
	window := time.Duration(seconds * float64(time.Second))
	var err error
	if traced {
		err = r.tracedRun(dir, window, traceOut)
	} else {
		err = r.untracedRun(dir, window)
	}
	return r.res, err
}

// untracedRun sets the system up sc.setups times and reports the median
// set-up time. A query workload measures its window and its refreshes on
// the last set-up only. refresh_read is fixed work that lasts a few seconds,
// too short to be steady on a shared host, so it measures on every set-up
// and reports the median of what the set-ups saw.
func (r *runner) untracedRun(dir string, window time.Duration) error {
	var setupS, qps, p50, p99, refresh []float64
	var bytes, points int64
	for k := 0; k < r.sc.setups; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		start := time.Now()
		sys, err := setUp(r.rd, r.sp, r.sc, sub, r.in, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if r.sp.refreshRead || k == r.sc.setups-1 {
			r.window(sys, windowOpts{clients: r.sp.clients, dur: r.sc.warm, generation: 1})
			var w *windowStats
			var rate float64
			if r.sp.refreshRead {
				w, rate = r.refreshBesideReader(sys.(*libSystem))
				bytes, points, _ = sys.footprint() // after the last merge-pack
			} else {
				bytes, points, _ = sys.footprint() // after the load
				w = r.window(sys, windowOpts{clients: r.sp.clients, dur: window, generation: 1, record: true})
				rate = r.refreshAll(sys, nil)
			}
			r.checkAfterRefresh(sys)
			qps, refresh = append(qps, w.qps()), append(refresh, rate)
			p50 = append(p50, nsToMS(percentile(w.lat, 0.50)))
			p99 = append(p99, nsToMS(percentile(w.lat, 0.99)))
			if r.res.p99Samples == 0 || len(w.lat) < r.res.p99Samples {
				r.res.p99Samples = len(w.lat)
			}
		}
		sys.close()
		os.RemoveAll(sub)
	}
	m := r.res.metrics
	m["setup_s"] = medianFloat(setupS)
	m["qps"] = medianFloat(qps)
	m["query_p50_ms"] = medianFloat(p50)
	m["query_p99_ms"] = medianFloat(p99)
	m["refresh_rows_per_s"] = medianFloat(refresh)
	m["bytes_per_point"] = ratio(float64(bytes), float64(points))
	return nil
}

// refreshAll applies every increment through the system's front door and
// returns delta rows per second of summed refresh wall. With a span log it
// also records one warehouse.update span per increment.
func (r *runner) refreshAll(sys system, log *spanLog) float64 {
	var rows int
	var wall time.Duration
	for g, inc := range r.in.increments {
		var before metricsSnap
		if log != nil {
			before, _ = sys.engine()
		}
		start := time.Now()
		err := sys.refresh(inc)
		took := time.Since(start)
		r.res.attempted++
		if err != nil {
			r.res.failed++
			r.problem("refresh %d failed: %v", g+1, err)
			continue
		}
		rows += len(inc)
		wall += took
		if log != nil {
			after, _ := sys.engine()
			log.update(int64(start.Sub(r.began)), int64(start.Sub(r.began)+took), len(inc), after, before)
		}
	}
	return ratio(float64(rows), wall.Seconds())
}

// refreshBesideReader is the refresh_read window: fixed work, not fixed
// time. One writer applies every increment through Warehouse.Update while
// one reader runs the slice list until the last commit.
func (r *runner) refreshBesideReader(sys *libSystem) (*windowStats, float64) {
	stop := make(chan struct{})
	var w *windowStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w = r.window(sys, windowOpts{clients: 1, stop: stop, record: true})
	}()
	rate := r.refreshAll(sys, nil)
	close(stop)
	wg.Wait()
	return w, rate
}

// checkAfterRefresh re-asks a sample of the list once every increment is in
// and compares against a fold of the grown fact table.
func (r *runner) checkAfterRefresh(sys system) {
	generation := len(r.in.increments) + 1
	for k := 0; k < postRefreshChecks; k++ {
		i := k * oracleEvery % len(r.in.list)
		rep, err := sys.query(i, true, nil)
		r.res.attempted++
		if err != nil {
			r.res.failed++
			r.problem("post-refresh request %d failed: %v", i, err)
		} else if !sameRows(rep.rows, r.expect(i, generation)) {
			r.res.failed++
			r.problem("post-refresh request %d: answer differs from the oracle", i)
		}
	}
}

// --- the measuring loop -----------------------------------------------------------------

type windowOpts struct {
	clients int
	dur     time.Duration   // run this long, or, when zero, until stop closes
	stop    <-chan struct{} // see dur
	traced  bool            // ask for a profile per request and record spans
	record  bool            // count the window's requests in attempted/failed
	// generation is the one every answer must match; zero means refreshes
	// are landing meanwhile and sampled answers are checked afterwards
	// against the generations current when they were asked.
	generation int
	// limit, when positive, makes a single client walk list[0:limit] once
	// instead of cycling for a duration.
	limit int
}

type windowStats struct {
	lat       []int64 // per-request latency of the answered requests in ns, sorted
	elapsed   time.Duration
	attempted int
	failed    int // requests that errored or whose answer the oracle rejects
	bytes     int64
	prof      profAgg
}

func (w *windowStats) qps() float64 { return ratio(float64(len(w.lat)), w.elapsed.Seconds()) }

// deferredCheck is a sampled answer of the refresh_read reader, kept for a
// check once the refreshes are over.
type deferredCheck struct {
	i, genBefore, genAfter int
	rows                   []cubetree.Row
}

type clientLog struct {
	lat       []int64
	attempted int
	failed    int
	bytes     int64
	prof      profAgg
	spans     *spanLog
	deferred  []deferredCheck
	lastEnd   time.Time
}

// window drives the system with closed-loop clients: each sends its next
// request only when the previous one has been answered. Client c takes
// requests c, c+clients, ... of the list and cycles.
func (r *runner) window(sys system, o windowOpts) *windowStats {
	logs := make([]*clientLog, o.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(o.dur)
	for c := range logs {
		cl := &clientLog{lat: make([]int64, 0, 1<<16)}
		if o.traced {
			cl.spans = &spanLog{client: uint64(len(r.logs) + 1)}
			r.logs = append(r.logs, cl.spans)
		}
		logs[c] = cl
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(sys, o, c, cl, deadline)
		}(c)
	}
	wg.Wait()

	w := &windowStats{}
	end := start
	for _, cl := range logs {
		w.lat = append(w.lat, cl.lat...)
		w.attempted += cl.attempted
		w.failed += cl.failed
		w.bytes += cl.bytes
		w.prof.merge(&cl.prof)
		if cl.lastEnd.After(end) {
			end = cl.lastEnd
		}
		r.checkDeferred(cl.deferred)
	}
	slices.Sort(w.lat)
	w.elapsed = end.Sub(start)
	if o.record {
		r.res.attempted += w.attempted
		r.res.failed += w.failed
	}
	return w
}

func (r *runner) client(sys system, o windowOpts, c int, cl *clientLog, deadline time.Time) {
	lib, _ := sys.(*libSystem)
	n := len(r.in.list)
	var prof *cubetree.QueryProfile
	for k := 0; ; k++ {
		i := (c + k*o.clients) % n
		switch {
		case o.limit > 0:
			if k >= o.limit {
				return
			}
		case o.stop != nil:
			select {
			case <-o.stop:
				return
			default:
			}
		case !time.Now().Before(deadline):
			return
		}
		check := i%oracleEvery == 0
		if o.generation == 0 {
			check = k%readerCheckEvery == 0
		}
		genBefore := 0
		if check && o.generation == 0 {
			genBefore = lib.w.Generation()
		}
		if o.traced {
			prof = &cubetree.QueryProfile{}
		}
		start := time.Now()
		rep, err := sys.query(i, check, prof)
		end := time.Now()
		cl.lastEnd = end
		cl.attempted++
		if err != nil {
			cl.failed++
			if cl.failed <= 3 {
				r.problem("request %d failed: %v", i, err)
			}
			continue
		}
		rtt := int64(end.Sub(start))
		cl.lat = append(cl.lat, rtt)
		cl.bytes += int64(rep.bytes)
		if o.traced {
			cl.prof.add(rtt, prof)
			cl.spans.request(r.sp, int64(start.Sub(r.began)), int64(end.Sub(r.began)), prof)
		}
		if !check {
			continue
		}
		if o.generation == 0 {
			cl.deferred = append(cl.deferred, deferredCheck{i, genBefore, lib.w.Generation(), rep.rows})
		} else if !sameRows(rep.rows, r.expect(i, o.generation)) {
			cl.failed++
			r.problem("request %d: answer differs from the oracle", i)
		}
	}
}

// checkDeferred verifies answers given while refreshes were landing: each
// must be the fold of one of the generations current around its request.
func (r *runner) checkDeferred(checks []deferredCheck) {
	for _, d := range checks {
		ok := false
		for g := d.genBefore; g <= d.genAfter && !ok; g++ {
			ok = sameRows(d.rows, r.expect(d.i, g))
		}
		if !ok {
			r.res.failed++
			r.problem("request %d beside a refresh (generation %d..%d): answer differs from the oracle", d.i, d.genBefore, d.genAfter)
		}
	}
}

// profAgg accumulates what the profiles of a window say.
type profAgg struct {
	queries                   int
	points, rows              int64
	leafRead, leafSkipped     int64
	poolHits, poolMisses      int64
	pointsPerQuery            []int64
	selfNS, legNS, coordSelfN []int64
	straggled, retries        int
}

func (a *profAgg) add(rtt int64, p *cubetree.QueryProfile) {
	a.queries++
	a.points += p.PointsScanned
	a.rows += p.RowsReturned
	a.leafRead += p.LeafPagesRead
	a.leafSkipped += p.LeafPagesSkipped
	a.poolHits += p.PoolHits
	a.poolMisses += p.PoolMisses
	a.pointsPerQuery = append(a.pointsPerQuery, p.PointsScanned)
	a.selfNS = append(a.selfNS, rtt-p.DurationNS)
	if len(p.Shards) == 0 {
		return
	}
	var slowest int64
	straggler := false
	for _, sh := range p.Shards {
		a.legNS = append(a.legNS, sh.DurationNS)
		slowest = max(slowest, sh.DurationNS)
		straggler = straggler || sh.Straggler
		a.retries += max(sh.Attempts-1, 0)
	}
	a.coordSelfN = append(a.coordSelfN, p.DurationNS-slowest)
	if straggler {
		a.straggled++
	}
}

func (a *profAgg) merge(b *profAgg) {
	a.queries += b.queries
	a.points += b.points
	a.rows += b.rows
	a.leafRead += b.leafRead
	a.leafSkipped += b.leafSkipped
	a.poolHits += b.poolHits
	a.poolMisses += b.poolMisses
	a.pointsPerQuery = append(a.pointsPerQuery, b.pointsPerQuery...)
	a.selfNS = append(a.selfNS, b.selfNS...)
	a.legNS = append(a.legNS, b.legNS...)
	a.coordSelfN = append(a.coordSelfN, b.coordSelfN...)
	a.straggled += b.straggled
	a.retries += b.retries
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}
