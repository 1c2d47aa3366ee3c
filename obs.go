package cubetree

import (
	"runtime"
	"strconv"

	"cubetree/internal/core"
	"cubetree/internal/dist"
	"cubetree/internal/obs"
	"cubetree/internal/rtree"
)

// ViewAnalytics is one view placement's storage shape and attributed
// workload traffic; see Warehouse.ViewAnalytics.
type ViewAnalytics = core.ViewAnalytics

// Observer is the observability sink a process attaches to a warehouse (or
// any engine): a metrics registry with lock-free counters, gauges, and
// latency histograms; a tracer keeping a ring of recent span trees; and a
// slow-query log. Attach one with Config.Obs or Warehouse.SetObserver, then
// expose it with ServeDebug. A nil *Observer disables all instrumentation at
// zero cost.
type Observer = obs.Observer

// ObserverOptions configures NewObserver.
type ObserverOptions = obs.Options

// NewObserver creates an observer with every sink attached: a registry
// pre-populated with the query-path metrics, a tracer, and a slow-query log.
// The registry also carries the process identity (build_info with the Go
// version, the written pack format, and wire protocol version; process start
// time and uptime) and the go_* runtime collector (heap, GC pauses,
// goroutines, scheduler latency) — all evaluated lazily at snapshot time, so
// they cost nothing on query hot paths.
func NewObserver(opts ObserverOptions) *Observer {
	o := obs.New(opts)
	obs.EnableRuntimeMetrics(o.Registry)
	obs.RegisterBuildInfo(o.Registry, obs.BuildInfo{
		GoVersion:    runtime.Version(),
		PackFormat:   rtree.PackFormat,
		WireProtocol: strconv.Itoa(dist.Version),
	})
	return o
}
