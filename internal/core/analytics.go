package core

import (
	"sort"
	"strconv"

	"cubetree/internal/enc"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/rtree"
)

// Per-view analytics: when an observer is attached, every placement gets a
// pre-resolved set of labeled metric children (view/tree/arity labels), the
// static storage gauges for its leaf run are published, and each tree's
// buffer pool gets an access observer that attributes leaf-page reads back
// to the run — and therefore the view — that owns the page. All hot-path
// updates are single atomic adds on pointers resolved here, and with no
// observer attached none of this machinery exists (viewMetrics is nil and
// the pools carry no access observer), keeping the uninstrumented query
// path allocation-free.

// viewMetrics holds one placement's pre-resolved metric children.
type viewMetrics struct {
	hits       *obs.Counter
	scanned    *obs.Counter
	rows       *obs.Counter
	pageReads  *obs.Counter
	pageMisses *obs.Counter
}

// attachAnalytics builds the per-view instrumentation for the current
// placements. Called from SetObserver; o == nil tears everything down.
func (f *Forest) attachAnalytics(o *obs.Observer) {
	for _, p := range f.pools {
		if p != nil {
			p.SetAccessObserver(nil)
		}
	}
	if o == nil {
		f.viewMetrics = nil
		return
	}
	reg := o.Registry
	hits := reg.CounterVec("view_query_hits_total", "view", "tree", "arity")
	scanned := reg.CounterVec("view_points_scanned_total", "view", "tree", "arity")
	rows := reg.CounterVec("view_rows_returned_total", "view", "tree", "arity")
	reads := reg.CounterVec("view_leaf_page_reads_total", "view", "tree", "arity")
	misses := reg.CounterVec("view_leaf_page_misses_total", "view", "tree", "arity")
	runPages := reg.GaugeVec("view_run_leaf_pages", "view", "tree", "arity")
	runPoints := reg.GaugeVec("view_run_points", "view", "tree", "arity")
	ratio := reg.GaugeVec("view_compression_ratio", "view", "tree", "arity")
	ptsPerPage := reg.GaugeVec("view_points_per_leaf_page", "view", "tree", "arity")
	bytesPerPoint := reg.GaugeVec("view_encoded_bytes_per_point", "view", "tree", "arity")

	f.viewMetrics = make([]viewMetrics, len(f.placements))
	perTree := make([][]runRange, len(f.trees))
	for i := range f.placements {
		p := &f.placements[i]
		view := p.View.String()
		tree := strconv.Itoa(p.Tree)
		arity := strconv.Itoa(p.Run.Arity)
		vm := &f.viewMetrics[i]
		vm.hits = hits.With(view, tree, arity)
		vm.scanned = scanned.With(view, tree, arity)
		vm.rows = rows.With(view, tree, arity)
		vm.pageReads = reads.With(view, tree, arity)
		vm.pageMisses = misses.With(view, tree, arity)

		// Static storage gauges, captured from the packed run. These are
		// re-published on every attach, so a merge-pack refresh followed by
		// SetObserver on the new forest refreshes them.
		runPages.With(view, tree, arity).Set(float64(runLeafPages(p.Run)))
		runPoints.With(view, tree, arity).Set(float64(p.Run.Points))
		ratio.With(view, tree, arity).Set(f.compressionRatio(p))
		ppp, bpp := runShape(p.Run)
		ptsPerPage.With(view, tree, arity).Set(ppp)
		bytesPerPoint.With(view, tree, arity).Set(bpp)

		if p.Run.FirstLeaf <= p.Run.LastLeaf {
			perTree[p.Tree] = append(perTree[p.Tree],
				runRange{lo: p.Run.FirstLeaf, hi: p.Run.LastLeaf, vm: vm})
		}
	}
	for t, ranges := range perTree {
		if len(ranges) == 0 || f.pools[t] == nil {
			continue
		}
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].lo < ranges[j].lo })
		f.pools[t].SetAccessObserver(&treeAttributor{ranges: ranges})
	}
}

// compressionRatio is the arity compression of a placement: bytes per stored
// point relative to an uncompressed point carrying all of the tree's
// coordinates. Lower is better; 1.0 means the view's arity equals the tree
// dimensionality, so nothing is saved.
func (f *Forest) compressionRatio(p *Placement) float64 {
	t := f.trees[p.Tree]
	full := enc.TupleSize(t.Dim() + t.Measures())
	if full == 0 {
		return 1
	}
	return float64(enc.TupleSize(p.Run.Arity+t.Measures())) / float64(full)
}

// runShape summarizes the physical shape of a leaf run: the packing density
// (points per leaf page) and the effective encoded bytes per point — total
// page bytes the run occupies divided by its points. This is how the
// columnar leaf layout's density shows up in /debug/warehouse without
// re-reading the run.
func runShape(r rtree.RunInfo) (pointsPerPage, bytesPerPoint float64) {
	pages := runLeafPages(r)
	if pages > 0 && r.Points > 0 {
		pointsPerPage = float64(r.Points) / float64(pages)
		bytesPerPoint = float64(pages) * float64(pager.PageSize) / float64(r.Points)
	}
	return pointsPerPage, bytesPerPoint
}

// runLeafPages returns the number of leaf pages a run occupies.
func runLeafPages(r rtree.RunInfo) uint64 {
	if r.LastLeaf < r.FirstLeaf {
		return 0
	}
	return uint64(r.LastLeaf - r.FirstLeaf + 1)
}

// runRange maps one leaf run's page interval to its metrics. Runs within a
// tree are disjoint, so a sorted slice with binary search resolves any page
// id in O(log runs) with no allocation.
type runRange struct {
	lo, hi pager.PageID
	vm     *viewMetrics
}

// treeAttributor implements pager.AccessObserver for one tree's pool,
// charging each leaf-page fetch to the run that owns the page. Inner-node
// pages fall between or after the runs' leaf intervals and are ignored.
type treeAttributor struct {
	ranges []runRange // sorted by lo, disjoint
}

func (a *treeAttributor) PageAccess(id pager.PageID, hit bool) {
	lo, hi := 0, len(a.ranges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ranges[mid].hi < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(a.ranges) || id < a.ranges[lo].lo {
		return
	}
	vm := a.ranges[lo].vm
	vm.pageReads.Inc()
	if !hit {
		vm.pageMisses.Inc()
	}
}

// ViewAnalytics is a point-in-time summary of one view placement: its static
// storage shape and the workload counters accumulated since the observer was
// attached. RunPages of every placement sum to the forest's LeafPages, and
// LeafPageReads across views is the forest's leaf-page fetch traffic — the
// raw material for the /debug/warehouse I/O heatmap.
type ViewAnalytics struct {
	View             string  `json:"view"`
	Tree             int     `json:"tree"`
	Arity            int     `json:"arity"`
	RunPages         uint64  `json:"run_leaf_pages"`
	RunPoints        int64   `json:"run_points"`
	CompressionRatio float64 `json:"compression_ratio"`
	PointsPerPage    float64 `json:"points_per_leaf_page"`
	BytesPerPoint    float64 `json:"encoded_bytes_per_point"`
	QueryHits        uint64  `json:"query_hits"`
	PointsScanned    uint64  `json:"points_scanned"`
	RowsReturned     uint64  `json:"rows_returned"`
	LeafPageReads    uint64  `json:"leaf_page_reads"`
	LeafPageMisses   uint64  `json:"leaf_page_misses"`
}

// ViewAnalytics reports per-view storage and workload analytics, one entry
// per placement in placement order. Storage fields are always populated;
// workload counters are zero unless an observer is attached.
func (f *Forest) ViewAnalytics() []ViewAnalytics {
	out := make([]ViewAnalytics, len(f.placements))
	for i := range f.placements {
		p := &f.placements[i]
		va := ViewAnalytics{
			View:             p.View.String(),
			Tree:             p.Tree,
			Arity:            p.Run.Arity,
			RunPages:         runLeafPages(p.Run),
			RunPoints:        p.Run.Points,
			CompressionRatio: f.compressionRatio(p),
		}
		va.PointsPerPage, va.BytesPerPoint = runShape(p.Run)
		if f.viewMetrics != nil {
			vm := &f.viewMetrics[i]
			va.QueryHits = vm.hits.Value()
			va.PointsScanned = vm.scanned.Value()
			va.RowsReturned = vm.rows.Value()
			va.LeafPageReads = vm.pageReads.Value()
			va.LeafPageMisses = vm.pageMisses.Value()
		}
		out[i] = va
	}
	return out
}
