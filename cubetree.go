// Package cubetree implements the Cubetree storage organization for ROLAP
// aggregate views (Kotidis & Roussopoulos, SIGMOD 1998): materialized
// group-by views stored in a small forest of packed, compressed R-trees
// that combine storage and indexing in one structure, answer slice queries
// with R-tree searches, and are refreshed by merge-packing sorted deltas
// with purely sequential I/O.
//
// The top-level API is the Warehouse: point Materialize at a fact-row
// stream and a set of views, then Query it and Update it with increments.
//
//	views := []cubetree.View{
//		cubetree.NewView("top", "partkey", "suppkey", "custkey"),
//		cubetree.NewView("ps", "partkey", "suppkey"),
//		cubetree.NewView("c", "custkey"),
//		cubetree.NewView("all"),
//	}
//	w, err := cubetree.Materialize(cfg, views, rows)
//	rows, err := w.Query(cubetree.Query{
//		Node:  []cubetree.Attr{"partkey", "suppkey"},
//		Fixed: []cubetree.Pred{{Attr: "partkey", Value: 17}},
//	})
//
// The internal packages expose the full machinery: the packed R-tree
// (internal/rtree), the SelectMapping algorithm and forest (internal/core),
// the sort-based cube computation (internal/cube), the conventional
// relational baseline (internal/relstore), the GHRU greedy view/index
// selection (internal/greedy), and the paper's full experiment suite
// (internal/experiment).
package cubetree

import (
	"time"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/workload"
)

// Attr names a grouping attribute of the fact stream. Attribute values are
// strictly positive int64 keys.
type Attr = lattice.Attr

// View is an aggregate view definition: a projection list over fact
// attributes. The attribute order is the view's coordinate mapping inside
// its Cubetree (and therefore its physical sort order).
type View = lattice.View

// NewView builds a view definition; a view with no attributes is the
// super-aggregate over the whole fact stream.
func NewView(name string, attrs ...Attr) View { return lattice.NewView(name, attrs...) }

// Query is a slice query: group the measure by Node's attributes, with
// equality predicates on a subset of them.
type Query = workload.Query

// Pred is an equality predicate within a Query.
type Pred = workload.Pred

// Row is one query result row: the node attribute values plus SUM and
// COUNT of the measure (AVG via Row.Avg).
type Row = workload.Row

// QueryProfile is the EXPLAIN-ANALYZE-style breakdown filled by
// Warehouse.QueryProfiledCtx (and, with per-shard detail, by a distributed
// coordinator's profiled queries).
type QueryProfile = workload.QueryProfile

// RowIter streams fact rows into Materialize and Update. Implementations
// must answer Value for every attribute named by the warehouse's views.
type RowIter = cube.RowIter

// Hierarchy declares that one attribute is a function of another (brand =
// f(partkey), year = f(monthkey)); declared hierarchies let roll-up views
// derive from finer materialized views instead of re-reading the fact
// stream. Because the mapping is a Go function it is not persisted: after
// Open, call Warehouse.UseHierarchies again before Update to keep the
// optimization (results are identical either way).
type Hierarchy = cube.Hierarchy

// Agg identifies an aggregate measure stored per point. SUM and COUNT are
// always present (so AVG is always derivable); AggMin and AggMax can be
// added via Config.ExtraMeasures — the paper's "multiple aggregation
// functions for each point" extension.
type Agg = lattice.Agg

// Aggregate measure identifiers.
const (
	AggSum   = lattice.AggSum
	AggCount = lattice.AggCount
	AggMin   = lattice.AggMin
	AggMax   = lattice.AggMax
)

// Stats counts page-level I/O. Attach one via Config to observe the
// sequential/random I/O profile of a warehouse.
type Stats = pager.Stats

// CostModel prices counted I/O; see Disk1998 for the paper's testbed.
type CostModel = pager.CostModel

// Disk1998 approximates the 1998 disk of the paper's evaluation; SSD2020 a
// modern NVMe device. Use with Stats snapshots to compare storage designs
// the way the paper measures them.
var (
	Disk1998 = pager.Disk1998
	SSD2020  = pager.SSD2020
)

// Version identifies this release of the library.
const Version = "1.0.0"

// Config controls warehouse construction.
type Config struct {
	// Dir is the warehouse directory (created if missing).
	Dir string
	// Domains gives the number of distinct values per attribute; the query
	// planner uses it for selectivity estimates. Optional but recommended.
	Domains map[Attr]int64
	// Replicas lists extra sort orders to materialize; each must be a
	// permutation of some selected view's attributes. Replicas trade space
	// for making more predicate combinations contiguous on disk.
	Replicas [][]Attr
	// PoolPages is the buffer pool capacity per Cubetree (default 256
	// pages of 8 KiB).
	PoolPages int
	// ExhaustionWait bounds how long a query blocked on a fully pinned
	// buffer pool waits for a frame before failing with
	// pager.ErrPoolExhausted (default 200ms). The returned error carries
	// the waited duration, so an admission layer can translate exhaustion
	// into an honest Retry-After.
	ExhaustionWait time.Duration
	// MemLimit bounds the external sorter's memory during materialization
	// and updates (default 16 MiB).
	MemLimit int
	// ExtraMeasures adds measures beyond SUM and COUNT to every stored
	// point (AggMin and/or AggMax). Query results expose them via
	// Row.Extra in this order.
	ExtraMeasures []Agg
	// Hierarchies declares attribute dependencies used to derive roll-up
	// views from finer ones during materialization and updates.
	Hierarchies []Hierarchy
	// Workers bounds how many views are sorted and derived concurrently
	// during Materialize and Update (default 1).
	Workers int
	// Stats receives page I/O accounting. Optional.
	Stats *Stats
	// Obs attaches an observability sink (metrics, traces, slow-query log)
	// to the warehouse; see NewObserver and ServeDebug. Optional: when nil,
	// the query and refresh paths stay entirely uninstrumented.
	Obs *Observer
}
