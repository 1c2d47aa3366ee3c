package main

// systems.go: the three front doors the workloads drive — the library
// (cubetree.Materialize / Warehouse), one cubetreed over HTTP, and a
// 2-worker cluster behind a cubetreed coordinator — behind one interface,
// so the measuring loops do not care which one they are timing.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cubetree"
)

// reply is one answered request.
type reply struct {
	rows  []cubetree.Row // decoded only when the caller asked for rows
	bytes int            // response body size (daemons only)
}

// system is a set-up system under test.
type system interface {
	// query answers request i of the list. wantRows asks for decoded rows;
	// a non-nil prof asks for the execution profile as well.
	query(i int, wantRows bool, prof *cubetree.QueryProfile) (reply, error)
	// refresh applies one increment through the system's own front door.
	refresh(inc []fact) error
	// footprint is the forest's size on disk, its stored points and its
	// leaf pages.
	footprint() (bytes, points, leafPages int64)
	// engine snapshots the engine processes' counters (traced runs).
	engine() (metricsSnap, error)
	// loadObserver is the observer that watched the load (traced runs).
	loadObserver() *cubetree.Observer
	// pids lists the child processes, for CPU and memory accounting.
	pids() []int
	close()
}

func warehouseConfig(dir string, in *inputs, pool int, stats *cubetree.Stats, o *cubetree.Observer) cubetree.Config {
	return cubetree.Config{
		Dir: dir, Domains: in.domains, Replicas: topReplicas, PoolPages: pool, Stats: stats, Obs: o,
	}
}

// --- library --------------------------------------------------------------------

type libSystem struct {
	dir   string
	w     *cubetree.Warehouse
	stats *cubetree.Stats
	obs   *cubetree.Observer // traced runs only; attached to w only around refreshes
	list  []cubetree.Query
}

// setUpLibrary is the paper's Table 6 load: one Materialize of the view set.
func setUpLibrary(dir string, in *inputs, pool int, traced bool) (*libSystem, error) {
	s := &libSystem{dir: dir, stats: &cubetree.Stats{}, list: in.list}
	if traced {
		s.obs = cubetree.NewObserver(cubetree.ObserverOptions{Stats: s.stats})
	}
	w, err := cubetree.Materialize(warehouseConfig(dir, in, pool, s.stats, s.obs), paperViews(), &factIter{rows: in.facts})
	if err != nil {
		return nil, err
	}
	// The observer saw the load's phases; queries stay uninstrumented.
	w.SetObserver(nil)
	s.w = w
	return s, nil
}

func (s *libSystem) query(i int, _ bool, prof *cubetree.QueryProfile) (reply, error) {
	var rows []cubetree.Row
	var err error
	if prof != nil {
		rows, err = s.w.QueryProfiledCtx(context.Background(), s.list[i], prof)
	} else {
		rows, err = s.w.Query(s.list[i])
	}
	return reply{rows: rows}, err
}

func (s *libSystem) refresh(inc []fact) error {
	if s.obs != nil {
		s.w.SetObserver(s.obs)
		defer s.w.SetObserver(nil)
	}
	return s.w.Update(&factIter{rows: inc})
}

// footprintOf reads a warehouse's size, points and leaf pages.
func footprintOf(w *cubetree.Warehouse) (int64, int64, int64) {
	st := w.Stat()
	return st.Bytes, st.Points, int64(st.LeafFraction*float64(st.Bytes)/pageSize + 0.5)
}

// pageSize is the pager's page size in bytes.
const pageSize = 8192

func (s *libSystem) footprint() (int64, int64, int64) { return footprintOf(s.w) }

// observerSnap reads an in-process observer's registry. Its JSON form is
// what the daemons serve at /debug/metrics, so one decoder reads both.
func observerSnap(o *cubetree.Observer) (metricsSnap, error) {
	var m, merged metricsSnap
	raw, err := json.Marshal(o.Registry.Snapshot())
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	merged.merge(m)
	return merged, err
}

func (s *libSystem) engine() (metricsSnap, error) { return observerSnap(s.obs) }

func (s *libSystem) loadObserver() *cubetree.Observer { return s.obs }

func (s *libSystem) pids() []int { return nil }

func (s *libSystem) close() { s.w.Close() }

// reopen closes the warehouse and opens it again, so the buffer pool starts
// empty: the defined state the counted pass begins from.
func (s *libSystem) reopen() error {
	if err := s.w.Close(); err != nil {
		return err
	}
	w, err := cubetree.Open(s.dir, s.stats)
	if err != nil {
		return err
	}
	s.w = w
	return nil
}

// --- daemons ----------------------------------------------------------------------

var errDaemonGone = errors.New("bench: a cubetreed process died")

type daemonSystem struct {
	in     *inputs
	procs  []*daemon
	front  string   // base URL of the HTTP front door
	scrape []string // base URLs of every process serving /debug/metrics
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc

	bytes, points, leafPages int64
	loadObs                  *cubetree.Observer // watched the load; traced runs only
}

// queryResponse is the part of the /query reply the benchmark reads.
type queryResponse struct {
	Results []struct {
		Rows    [][]string             `json:"rows"`
		Profile *cubetree.QueryProfile `json:"profile"`
	} `json:"results"`
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   15 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// materializeFor loads facts into dir and closes the warehouse again, ready
// for a daemon to open; the forest's footprint is added to s.
func (s *daemonSystem) materializeFor(dir string, in *inputs, facts []fact, pool int) error {
	w, err := cubetree.Materialize(warehouseConfig(dir, in, pool, nil, s.loadObs), paperViews(), &factIter{rows: facts})
	if err != nil {
		return err
	}
	b, p, l := footprintOf(w)
	s.bytes, s.points, s.leafPages = s.bytes+b, s.points+p, s.leafPages+l
	return w.Close()
}

// setUpHTTP loads the warehouse and boots one cubetreed -dir over it with
// every daemon default (result cache, admission, observer, history scraper).
func setUpHTTP(rd *runDir, dir string, in *inputs, pool int, o *cubetree.Observer) (*daemonSystem, error) {
	s := &daemonSystem{in: in, client: newHTTPClient(), loadObs: o}
	if err := s.materializeFor(dir, in, in.facts, pool); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d, err := rd.spawn("cubetreed", addr, "-dir", dir)
	if err != nil {
		return nil, err
	}
	s.procs = []*daemon{d}
	if err := d.waitReady(s.client); err != nil {
		s.close()
		return nil, err
	}
	s.front = "http://" + addr
	s.scrape = []string{s.front}
	s.ctx, s.cancel = cancelOnDeath(s.procs)
	return s, nil
}

// shardOf hash-partitions a fact over n shards. Any assignment gives the
// same answers (the measures are distributive); this one only has to be
// even and the benchmark's own.
func shardOf(f fact, n int) int {
	r := prng{state: uint64(f.part)*0x9e3779b97f4a7c15 ^ uint64(f.supp)<<32 ^ uint64(f.cust)}
	return r.intn(n)
}

const clusterShards = 2

// setUpCluster partitions the facts in two, loads one warehouse per half,
// boots a cubetreed -worker over each and a cubetreed -shards coordinator
// in front.
func setUpCluster(rd *runDir, dir string, in *inputs, pool int, o *cubetree.Observer) (*daemonSystem, error) {
	s := &daemonSystem{in: in, client: newHTTPClient(), loadObs: o}
	parts := make([][]fact, clusterShards)
	for _, f := range in.facts {
		k := shardOf(f, clusterShards)
		parts[k] = append(parts[k], f)
	}
	fail := func(err error) (*daemonSystem, error) {
		s.close()
		return nil, err
	}
	var workerAddrs []string
	for k, part := range parts {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard%d", k))
		if err := s.materializeFor(shardDir, in, part, pool); err != nil {
			return fail(err)
		}
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		debugAddr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		d, err := rd.spawn(fmt.Sprintf("worker%d", k), addr, "-worker", "-dir", shardDir, "-debug-addr", debugAddr)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, d)
		workerAddrs = append(workerAddrs, addr)
		s.scrape = append(s.scrape, "http://"+debugAddr)
	}
	for _, d := range s.procs {
		if err := d.waitListening(); err != nil {
			return fail(err)
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	coord, err := rd.spawn("coordinator", addr, "-shards", strings.Join(workerAddrs, ","))
	if err != nil {
		return fail(err)
	}
	s.procs = append(s.procs, coord)
	if err := coord.waitReady(s.client); err != nil {
		return fail(err)
	}
	s.front = "http://" + addr
	s.scrape = append(s.scrape, s.front)
	s.ctx, s.cancel = cancelOnDeath(s.procs)
	return s, nil
}

func (s *daemonSystem) post(path, contentType string, body []byte) ([]byte, error) {
	if s.ctx.Err() != nil {
		return nil, errDaemonGone
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost, s.front+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", path, resp.StatusCode, out)
	}
	return out, nil
}

func (s *daemonSystem) query(i int, wantRows bool, prof *cubetree.QueryProfile) (reply, error) {
	body := s.in.plain[i]
	if prof != nil {
		body = s.in.profiled[i]
	}
	raw, err := s.post("/query", "application/json", body)
	if err != nil {
		return reply{}, err
	}
	rep := reply{bytes: len(raw)}
	if !wantRows && prof == nil {
		return rep, nil
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil || len(qr.Results) != 1 {
		return rep, fmt.Errorf("bad /query reply: %v: %.200s", err, raw)
	}
	if prof != nil {
		if qr.Results[0].Profile == nil {
			return rep, fmt.Errorf("/query reply carries no profile")
		}
		*prof = *qr.Results[0].Profile
	}
	if wantRows {
		rows, ok := parseRows(qr.Results[0].Rows, len(s.in.list[i].Node))
		if !ok {
			return rep, fmt.Errorf("bad /query rows: %.200s", raw)
		}
		rep.rows = rows
	}
	return rep, nil
}

func (s *daemonSystem) refresh(inc []fact) error {
	_, err := s.post("/admin/refresh?measure="+measureName, "text/csv", renderCSV(inc))
	return err
}

func (s *daemonSystem) footprint() (int64, int64, int64) { return s.bytes, s.points, s.leafPages }

func (s *daemonSystem) loadObserver() *cubetree.Observer { return s.loadObs }

// scrapeOne reads one process's /debug/metrics.
func (s *daemonSystem) scrapeOne(base string) (metricsSnap, error) {
	var m metricsSnap
	resp, err := s.client.Get(base + "/debug/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// engine merges every process's metrics: the engines' page I/O and phase
// times and the front door's server_* and dist_* families.
func (s *daemonSystem) engine() (metricsSnap, error) {
	var merged metricsSnap
	for _, base := range s.scrape {
		m, err := s.scrapeOne(base)
		if err != nil {
			return merged, err
		}
		merged.merge(m)
	}
	return merged, nil
}

func (s *daemonSystem) pids() []int {
	var out []int
	for _, d := range s.procs {
		out = append(out, d.cmd.Process.Pid)
	}
	return out
}

func (s *daemonSystem) close() {
	if s.cancel != nil {
		s.cancel()
	}
	// The coordinator goes first so no worker sees its peer vanish mid-query.
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// setUp builds the system a workload runs against. Everything in here is
// what setup_s times: the load, the partitioning, and daemon boot up to
// /readyz.
func setUp(rd *runDir, sp spec, sc scale, dir string, in *inputs, traced bool) (system, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pool := sc.hotPool
	if sp.coldPool {
		pool = sc.coldPool
	}
	switch sp.front {
	case frontLibrary:
		return setUpLibrary(dir, in, pool, traced)
	case frontHTTP, frontCluster:
		var o *cubetree.Observer
		if traced {
			o = cubetree.NewObserver(cubetree.ObserverOptions{})
		}
		boot := setUpHTTP
		if sp.front == frontCluster {
			boot = setUpCluster
		}
		return boot(rd, dir, in, pool, o)
	}
	return nil, fmt.Errorf("bench: unknown front door %d", sp.front)
}
