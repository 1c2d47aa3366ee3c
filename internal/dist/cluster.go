package dist

import (
	"context"
	"time"

	"cubetree/internal/obs"
)

// ClusterShard is one row of /debug/cluster's per-shard table: the scrape
// outcome, the shard's generation, its live scatter state on the coordinator
// side (in-flight legs, p95 latency, scrape-straggler verdict), its buffer
// pool occupancy, and the full worker metric snapshot the numbers came from.
type ClusterShard struct {
	Addr       string `json:"addr"`
	Generation int    `json:"generation"`
	// ScrapeNS is this shard's metrics round-trip wall time; Straggler marks
	// it a straggler relative to its siblings by the same 2×-fastest rule the
	// query path uses.
	ScrapeNS  int64  `json:"scrape_ns"`
	Straggler bool   `json:"straggler,omitempty"`
	Error     string `json:"error,omitempty"` // scrape failure

	InFlight     int64 `json:"in_flight"`
	P95LatencyNS int64 `json:"p95_latency_ns"`

	// Pool occupancy, lifted out of the worker's gauges for the table view.
	PoolResidentFrames int64 `json:"pool_resident_frames"`
	PoolPinnedFrames   int64 `json:"pool_pinned_frames"`
	PoolCapacityFrames int64 `json:"pool_capacity_frames"`

	// Metrics is the worker's full registry snapshot (nil when the scrape
	// failed). Labeled families live only here — they have no meaningful
	// cross-shard sum, so the fleet merge does not attempt one.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// FleetMetrics is the cross-shard merge (obs.Snapshot.Merge) of the scraped
// snapshots: counters and gauges summed over every shard that answered,
// histograms merged bucket-by-bucket. Every obs.Histogram shares the same
// log2 bucket grid, so merged percentiles are exact at bucket granularity.
type FleetMetrics struct {
	Counters   map[string]uint64                `json:"counters"`
	Gauges     map[string]int64                 `json:"gauges"`
	Histograms map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// ClusterInfo is /debug/cluster's body: one endpoint answering "is the
// cluster healthy" — merged fleet metrics, the generation spread (skew > 0
// means a refresh commit left shards on different epochs), and the per-shard
// straggler/pool table.
type ClusterInfo struct {
	Generation int `json:"generation"` // logical (sum of shard generations)
	// Generation spread across the shards that answered the scrape. Shards
	// advance in lockstep, so Skew is normally 0; a persistent nonzero skew
	// means a refresh commit failed partway and the next refresh has not yet
	// realigned the fleet.
	GenerationMin  int `json:"generation_min"`
	GenerationMax  int `json:"generation_max"`
	GenerationSkew int `json:"generation_skew"`

	Shards []ClusterShard `json:"shards"`
	Fleet  FleetMetrics   `json:"fleet"`
}

// ClusterInfo scrapes every worker's metric snapshot in one scatter and
// aggregates the fleet view. Per-shard failures (a worker that is down or
// cannot answer the metrics frame) are recorded in that shard's Error field
// rather than failing the whole scrape: a partially-visible cluster is
// exactly when the endpoint matters most.
func (c *Coordinator) ClusterInfo(ctx context.Context) ClusterInfo {
	n := len(c.shards)
	rows := make([]ClusterShard, n)
	payloads := make([]*metricsReplyPayload, n)
	elapsed, _ := c.scatter(func(i int, sh *shard) error {
		var mp metricsReplyPayload
		if err := c.control(ctx, sh, FrameMetrics, struct{}{}, FrameMetricsReply, &mp,
			metricsRequestRetries, c.cfg.RequestTimeout); err != nil {
			rows[i].Error = err.Error()
			return nil // recorded per shard; never fail the scrape
		}
		payloads[i] = &mp
		sh.generation.Store(int64(mp.Generation))
		return nil
	})

	var info ClusterInfo
	// Empty, not nil, so a scrape no shard answered still serves
	// "counters": {} and "gauges": {}.
	fleet := obs.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}}
	first := true
	for i, sh := range c.shards {
		row := &rows[i]
		row.Addr = sh.addr
		row.Generation = int(sh.generation.Load())
		row.ScrapeNS = elapsed[i].Nanoseconds()
		row.Straggler = stragglerAt(elapsed, i)
		row.InFlight = sh.inflight.Load()
		row.P95LatencyNS = sh.latency.Snapshot().P95
		if mp := payloads[i]; mp != nil {
			row.Metrics = &mp.Metrics
			row.PoolResidentFrames = mp.Metrics.Gauges["pool_resident_frames"]
			row.PoolPinnedFrames = mp.Metrics.Gauges["pool_pinned_frames"]
			row.PoolCapacityFrames = mp.Metrics.Gauges["pool_capacity_frames"]
			fleet.Merge(mp.Metrics)
			if first || mp.Generation < info.GenerationMin {
				info.GenerationMin = mp.Generation
			}
			if first || mp.Generation > info.GenerationMax {
				info.GenerationMax = mp.Generation
			}
			first = false
		}
	}
	info.Generation = c.Generation()
	info.GenerationSkew = info.GenerationMax - info.GenerationMin
	info.Shards = rows
	info.Fleet = FleetMetrics{fleet.Counters, fleet.Gauges, fleet.Histograms}
	return info
}

// FleetSnapshot folds one ClusterInfo scrape into a single obs.Snapshot: the
// coordinator's own registry (dist_* families, server-side counters) plus
// every worker's counters, gauges, and histograms merged on top
// (obs.Snapshot.Merge), so names shared by coordinator and workers add
// together. This is the Source a coordinator hands its history ring: the
// time-series and SLO views then describe the cluster, not one process, and
// the rollup rides the same metrics/metricsReply wire frames /debug/cluster
// uses, so a worker that fails the scrape degrades to a per-shard scrape
// error rather than an invisible gap. The dist_scraped_shards gauge records
// how many shards actually answered each sample.
func (c *Coordinator) FleetSnapshot(ctx context.Context) obs.Snapshot {
	info := c.ClusterInfo(ctx)
	var snap obs.Snapshot
	if o := c.cfg.Obs; o != nil {
		snap = o.Registry.Snapshot()
	}
	if snap.TakenUnixNS == 0 {
		snap.TakenUnixNS = time.Now().UnixNano()
	}
	snap.Merge(obs.Snapshot{Counters: info.Fleet.Counters, Gauges: info.Fleet.Gauges, Histograms: info.Fleet.Histograms})
	scraped := 0
	for _, sh := range info.Shards {
		if sh.Error == "" {
			scraped++
		}
	}
	snap.Gauges["dist_scraped_shards"] = int64(scraped)
	snap.Gauges["dist_shards"] = int64(len(info.Shards))
	return snap
}
