package cubetree

import (
	"encoding/json"
	"net/http"

	"cubetree/internal/dist"
	"cubetree/internal/obs"
)

// ShardBackend adapts a Warehouse to the dist.Backend surface a shard
// worker serves: the adapter exists only to return BeginUpdate's
// *PendingUpdate as the dist.Pending interface.
func ShardBackend(w *Warehouse) dist.Backend { return shardBackend{w} }

type shardBackend struct{ *Warehouse }

func (b shardBackend) BeginUpdate(rows RowIter) (dist.Pending, error) {
	return b.Warehouse.BeginUpdate(rows)
}

func (b shardBackend) Stat() (points, bytes int64) {
	st := b.Warehouse.Stat()
	return st.Points, st.Bytes
}

// CoordinatorDebugMux builds the debug handler for a coordinator process:
// the observer's endpoints plus /debug/warehouse serving the coordinator's
// per-shard table (address, generation, in-flight, last error, p95 latency)
// and /debug/cluster serving the aggregated fleet view (merged worker
// metrics, generation skew, straggler and pool-occupancy tables — one
// endpoint answering "is the cluster healthy"). Either argument may be nil.
func CoordinatorDebugMux(c *dist.Coordinator, o *Observer) *http.ServeMux {
	mux := obs.DebugMux(o)
	if c != nil {
		mux.HandleFunc("/debug/warehouse", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(rw)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				dist.DebugInfo
				Sparklines []obs.Sparkline `json:"sparklines,omitempty"`
			}{c.DebugInfo(), sparklineSummary(o)})
		})
		mux.HandleFunc("/debug/cluster", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(rw)
			enc.SetIndent("", "  ")
			enc.Encode(c.ClusterInfo(r.Context()))
		})
	}
	return mux
}
