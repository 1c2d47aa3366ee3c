// Command cubetreed serves a Cubetree warehouse over HTTP: sqlish queries
// on POST /query, the warehouse description on GET /views, CSV deltas on
// POST /admin/refresh, health/readiness probes, and the debug endpoints
// (metrics, Prometheus exposition, traces, pprof) on /debug/ — one port,
// one process.
//
//	cubetreed -dir ./wh -addr :8347
//
// The same binary also runs a distributed forest (see docs/DISTRIBUTED.md):
//
//	cubetreed -worker -dir ./shard0 -addr :9001        # shard worker
//	cubetreed -shards :9001,:9002 -addr :8347          # coordinator
//
// A worker serves its shard's warehouse over the binary wire protocol; a
// coordinator speaks the same HTTP API as a single-process server, scatters
// every query to all shards, folds the partial aggregates, and fans
// refreshes out so shards merge-pack in parallel.
//
// The server is built to stay up under abuse: bounded admission with load
// shedding (429/503 + Retry-After), per-client rate limiting, per-request
// timeouts that actually cancel the underlying scans, panic recovery, and
// graceful drain on SIGTERM/SIGINT (stop accepting, finish in-flight,
// exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/obs"
	"cubetree/internal/server"
)

func main() {
	var (
		dir        = flag.String("dir", "", "warehouse directory (required unless -shards; build one with ctload)")
		addr       = flag.String("addr", ":8347", "listen address")
		worker     = flag.Bool("worker", false, "serve this warehouse as a shard worker (binary wire protocol, no HTTP)")
		shards     = flag.String("shards", "", "comma-separated worker addresses; serve as the cluster coordinator")
		inflight   = flag.Int("max-inflight", 16, "max concurrently executing requests")
		queue      = flag.Int("max-queue", 0, "max requests queued for admission (0 = 4x max-inflight)")
		queueWait  = flag.Duration("queue-wait", time.Second, "max time a request waits for an execution slot")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request execution timeout")
		rate       = flag.Float64("rate", 0, "per-client requests/sec (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-client burst (0 = 2x rate)")
		cacheSize  = flag.Int("cache", 1024, "result cache entries (negative = disabled)")
		batchPar   = flag.Int("batch-parallel", 4, "workers per request's statement batch")
		poolWait   = flag.Duration("pool-wait", 0, "buffer-pool exhaustion wait before shedding (0 = engine default)")
		slow       = flag.Duration("slow", 100*time.Millisecond, "slow-query log threshold (0 = off)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "max time to finish in-flight requests on shutdown")
		debugAddr  = flag.String("debug-addr", "", "worker mode: serve /debug endpoints (traces, metrics, pprof) on this HTTP address")
		scrape     = flag.Duration("scrape-interval", 10*time.Second, "self-monitoring scrape cadence feeding /debug/history and /debug/slo (0 = off)")
		sloSpec    = flag.String("slo", "", `SLO objectives, e.g. "p99 query_latency_ns < 50ms over 5m, query_errors_total/query_total < 0.1% over 5m" (empty = those defaults; "off" disables)`)
	)
	flag.Parse()
	if *worker && *shards != "" {
		fmt.Fprintln(os.Stderr, "cubetreed: -worker and -shards are mutually exclusive")
		os.Exit(2)
	}
	if *shards != "" {
		runCoordinator(*shards, *addr, serverConfig(*inflight, *queue, *queueWait, *timeout,
			*rate, *burst, *cacheSize, *batchPar, *slow), *slow, *drainGrace, *scrape, *sloSpec)
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "cubetreed: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	stats := &cubetree.Stats{}
	w, err := cubetree.Open(*dir, stats)
	if err != nil {
		log.Fatalf("cubetreed: open warehouse: %v", err)
	}
	defer w.Close()
	if *poolWait > 0 {
		w.SetExhaustionWait(*poolWait)
	}

	o := cubetree.NewObserver(cubetree.ObserverOptions{SlowThreshold: *slow, Stats: stats})
	w.SetObserver(o)
	stopMon := startSelfMonitoring(o, nil, *scrape, *sloSpec)
	defer stopMon()

	if *worker {
		runWorker(w, o, *dir, *addr, *debugAddr)
		return
	}

	cfg := serverConfig(*inflight, *queue, *queueWait, *timeout, *rate, *burst,
		*cacheSize, *batchPar, *slow)
	cfg.Store = w
	cfg.Obs = o
	cfg.SLO = o.SLO
	cfg.Debug = cubetree.DebugMux(w, o)
	serveHTTP(cfg, *addr, *drainGrace, func(ln net.Addr) {
		log.Printf("cubetreed: serving %s on http://%s (views=%d gen=%d)",
			*dir, ln, len(w.Views()), w.Generation())
	})
}

func serverConfig(inflight, queue int, queueWait, timeout time.Duration, rate float64,
	burst, cacheSize, batchPar int, slow time.Duration) server.Config {
	return server.Config{
		MaxInFlight:      inflight,
		MaxQueue:         queue,
		QueueWait:        queueWait,
		RequestTimeout:   timeout,
		RatePerSec:       rate,
		RateBurst:        burst,
		CacheEntries:     cacheSize,
		BatchParallelism: batchPar,
	}
}

// runWorker serves the warehouse over the shard wire protocol until
// SIGTERM/SIGINT, then stops accepting, cuts in-flight connections, and
// aborts any uncommitted pending refresh. With -debug-addr it also serves
// the debug endpoints over HTTP, so /debug/traces?trace=<id> works on a
// worker process just like on the coordinator — the distributed-tracing
// story needs every hop inspectable.
func runWorker(w *cubetree.Warehouse, o *cubetree.Observer, dir, addr, debugAddr string) {
	wk := dist.NewWorker(cubetree.ShardBackend(w), o)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("cubetreed: listen: %v", err)
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			log.Fatalf("cubetreed: debug listen: %v", err)
		}
		dsrv := &http.Server{Handler: cubetree.DebugMux(w, o), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("cubetreed: debug serve: %v", err)
			}
		}()
		defer dsrv.Close()
		log.Printf("cubetreed: worker debug endpoints on http://%s/debug/", dln.Addr())
	}
	done := make(chan error, 1)
	go func() { done <- wk.Serve(ln) }()
	log.Printf("cubetreed: worker serving %s on %s (views=%d gen=%d)",
		dir, ln.Addr(), len(w.Views()), w.Generation())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-done:
		log.Fatalf("cubetreed: worker serve: %v", err)
	case s := <-sig:
		log.Printf("cubetreed: worker %v: shutting down", s)
	}
	if err := wk.Close(); err != nil {
		log.Printf("cubetreed: worker close: %v", err)
	}
	log.Printf("cubetreed: stopped")
}

// startSelfMonitoring attaches the history ring (scraping source, or the
// observer's own registry when source is nil) and the SLO tracker to o,
// honoring the -scrape-interval/-slo flags. Returns the scraper's shutdown
// func. A zero interval disables both; sloSpec "off" keeps the history but
// drops the objectives.
func startSelfMonitoring(o *cubetree.Observer, source func() obs.Snapshot,
	interval time.Duration, sloSpec string) func() {
	if o == nil || interval <= 0 {
		return func() {}
	}
	h := o.StartHistory(obs.HistoryOptions{Source: source, Interval: interval})
	if sloSpec != "off" {
		var objectives []obs.Objective // empty = tracker defaults
		if sloSpec != "" {
			parsed, err := obs.ParseObjectives(sloSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cubetreed: -slo: %v\n", err)
				os.Exit(2)
			}
			objectives = parsed
		}
		o.SetSLOs(objectives)
	}
	return h.Close
}

// runCoordinator connects to the shard workers and serves the standard HTTP
// API over the scatter-gather store.
func runCoordinator(shardList, addr string, cfg server.Config, slow, drainGrace time.Duration,
	scrape time.Duration, sloSpec string) {
	o := cubetree.NewObserver(cubetree.ObserverOptions{SlowThreshold: slow})
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Shards: strings.Split(shardList, ","),
		Obs:    o,
	})
	if err != nil {
		log.Fatalf("cubetreed: coordinator: %v", err)
	}
	defer coord.Close()
	// The coordinator's history samples the whole fleet: each scrape rides
	// the metrics wire frames to every worker and merges the answers, so
	// /debug/history and /debug/slo here describe the cluster.
	scrapeTimeout := scrape
	if scrapeTimeout <= 0 || scrapeTimeout > 5*time.Second {
		scrapeTimeout = 5 * time.Second
	}
	stopMon := startSelfMonitoring(o, func() obs.Snapshot {
		ctx, cancel := context.WithTimeout(context.Background(), scrapeTimeout)
		defer cancel()
		return coord.FleetSnapshot(ctx)
	}, scrape, sloSpec)
	defer stopMon()
	cfg.Store = coord
	cfg.Obs = o
	cfg.SLO = o.SLO
	cfg.Debug = cubetree.CoordinatorDebugMux(coord, o)
	serveHTTP(cfg, addr, drainGrace, func(ln net.Addr) {
		log.Printf("cubetreed: coordinator serving %d shard(s) on http://%s (views=%d gen=%d)",
			len(strings.Split(shardList, ",")), ln, len(coord.Views()), coord.Generation())
	})
}

// serveHTTP runs the HTTP front door until SIGTERM/SIGINT, then drains.
func serveHTTP(cfg server.Config, addr string, drainGrace time.Duration, ready func(net.Addr)) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("cubetreed: listen: %v", err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	ready(ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-done:
		log.Fatalf("cubetreed: serve: %v", err)
	case s := <-sig:
		log.Printf("cubetreed: %v: draining (grace %v)", s, drainGrace)
	}

	// Drain first — new queries shed with 503, readiness flips so load
	// balancers stop routing here — then close the listener once in-flight
	// work is done. Shutdown also waits for handlers still writing.
	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("cubetreed: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("cubetreed: shutdown: %v", err)
	}
	log.Printf("cubetreed: stopped")
}
