package cubetree

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubetree/internal/core"
	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/workload"
)

// Warehouse is a set of materialized aggregate views stored as a forest of
// Cubetrees. It is built once with Materialize, queried concurrently with
// Query, and refreshed in bulk with Update, which merge-packs a sorted
// delta into a fresh forest generation and atomically switches over —
// exactly the paper's Figure 15 refresh cycle.
type Warehouse struct {
	cfg    Config
	views  []View
	schema lattice.Schema

	// mu guards forest and generation: queries take the read lock, and
	// Update holds the write lock only for the generation switch, so
	// queries keep flowing against the old forest while the new one is
	// merge-packed — the paper's zero-query-downtime refresh.
	mu         sync.RWMutex
	forest     *core.Forest
	generation int

	// refresh tracks the merge-pack phase of an in-flight Update so the
	// registry's progress/ETA gauges can report it; nil when idle.
	refresh atomic.Pointer[refreshProgress]

	obs *obs.Observer
}

// refreshProgress is a snapshot of one refresh's merge-pack phase: progress
// is the fraction of ExpectedPages written (sequential writes since
// StartWrites), and the ETA extrapolates the observed write rate. Expected
// page counts come from the merge-pack arithmetic — the old forest's pages
// scaled by the delta's relative size — so the estimate is coarse but derived
// from real layout, not wall-clock guessing.
type refreshProgress struct {
	Start         time.Time
	StartWrites   uint64
	ExpectedPages uint64
}

// fraction returns completed ∈ [0,1] given the current write counter.
func (rp *refreshProgress) fraction(writes uint64) float64 {
	if rp.ExpectedPages == 0 {
		return 0
	}
	done := float64(writes-rp.StartWrites) / float64(rp.ExpectedPages)
	if done > 1 {
		done = 1
	}
	return done
}

// etaNanos estimates the remaining merge-pack time from the write rate so
// far; 0 until there is signal.
func (rp *refreshProgress) etaNanos(writes uint64, now time.Time) int64 {
	done := rp.fraction(writes)
	elapsed := now.Sub(rp.Start)
	if done <= 0 || elapsed <= 0 {
		return 0
	}
	total := time.Duration(float64(elapsed) / done)
	if total <= elapsed {
		return 0
	}
	return int64(total - elapsed)
}

// SetObserver attaches an observability sink to the warehouse: queries are
// counted, timed, and slow-logged; refreshes are traced phase by phase; and
// the registry gains generation and buffer-pool occupancy gauges plus the
// warehouse's I/O counters. Pass nil to detach. Attach before serving
// queries; the call is not synchronized with in-flight ones.
func (w *Warehouse) SetObserver(o *obs.Observer) {
	w.obs = o
	w.mu.RLock()
	forest := w.forest
	w.mu.RUnlock()
	if forest != nil {
		forest.SetObserver(o)
	}
	if o == nil {
		return
	}
	if w.cfg.Stats != nil {
		o.Registry.AttachStats(w.cfg.Stats)
	}
	o.Registry.GaugeFunc("generation", func() int64 { return int64(w.Generation()) })
	pools := func(fn func(pager.PoolInfo) int64) int64 {
		w.mu.RLock()
		defer w.mu.RUnlock()
		var n int64
		for _, pi := range w.forest.PoolInfos() {
			n += fn(pi)
		}
		return n
	}
	o.Registry.GaugeFunc("pool_capacity_frames", func() int64 {
		return pools(func(pi pager.PoolInfo) int64 { return int64(pi.Capacity) })
	})
	o.Registry.GaugeFunc("pool_resident_frames", func() int64 {
		return pools(func(pi pager.PoolInfo) int64 { return int64(pi.Frames) })
	})
	o.Registry.GaugeFunc("pool_pinned_frames", func() int64 {
		return pools(func(pi pager.PoolInfo) int64 { return int64(pi.Pinned) })
	})
	// Refresh progress: 0/1 activity flag, merge-pack progress in permille
	// (integer gauges can't carry a fraction), and an ETA extrapolated from
	// the sequential-write rate against the expected page count.
	o.Registry.GaugeFunc("refresh_active", func() int64 {
		if w.refresh.Load() != nil {
			return 1
		}
		return 0
	})
	o.Registry.GaugeFunc("refresh_progress_permille", func() int64 {
		rp := w.refresh.Load()
		if rp == nil || w.cfg.Stats == nil {
			return 0
		}
		return int64(rp.fraction(w.cfg.Stats.SeqWrites()) * 1000)
	})
	o.Registry.GaugeFunc("refresh_eta_ns", func() int64 {
		rp := w.refresh.Load()
		if rp == nil || w.cfg.Stats == nil {
			return 0
		}
		return rp.etaNanos(w.cfg.Stats.SeqWrites(), time.Now())
	})
}

// Observer returns the attached observability sink, or nil.
func (w *Warehouse) Observer() *obs.Observer { return w.obs }

// Schema returns the measure schema stored per aggregate point: SUM,
// COUNT, then Config.ExtraMeasures in order.
func (w *Warehouse) Schema() []Agg { return append([]Agg(nil), w.schema...) }

// warehouse.json records the warehouse-level catalog.
const warehouseCatalog = "warehouse.json"

type warehouseJSON struct {
	Generation int              `json:"generation"`
	Views      []viewJSON       `json:"views"`
	Replicas   [][]string       `json:"replicas,omitempty"`
	Domains    map[string]int64 `json:"domains,omitempty"`
	Schema     []string         `json:"schema,omitempty"`
	PoolPages  int              `json:"pool_pages,omitempty"`
}

type viewJSON struct {
	Name  string   `json:"name,omitempty"`
	Attrs []string `json:"attrs"`
}

// Materialize computes the given views from one pass over rows (plus
// derivations between views, each computed from its smallest parent) and
// bulk-loads them into a Cubetree forest under cfg.Dir. The view set is
// mapped to the minimal forest by the paper's SelectMapping algorithm.
func Materialize(cfg Config, views []View, rows RowIter) (*Warehouse, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("cubetree: no views to materialize")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cubetree: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &Warehouse{cfg: cfg, views: append([]View(nil), views...), generation: 1}
	schema, err := lattice.NewSchema(cfg.ExtraMeasures...)
	if err != nil {
		return nil, err
	}
	w.schema = schema

	// Clear debris a crashed earlier attempt may have left: Materialize
	// must succeed over a stale scratch or generation directory.
	scratch := filepath.Join(cfg.Dir, "scratch")
	os.RemoveAll(scratch)
	os.RemoveAll(w.genDir())

	o := cfg.Obs
	tr := o.StartTrace("materialize")
	defer tr.End()

	computeSp := tr.Child("compute")
	data, err := cube.Compute(scratch, rows, w.views, cube.Options{
		MemLimit:    cfg.MemLimit,
		Stats:       cfg.Stats,
		Schema:      schema,
		Hierarchies: cfg.Hierarchies,
		Workers:     cfg.Workers,
		Span:        computeSp,
	})
	o.ObservePhase("materialize_compute", computeSp)
	if err != nil {
		tr.SetStr("error", err.Error())
		return nil, err
	}
	defer removeAll(data, scratch)

	sources, err := w.sources(data, scratch)
	if err != nil {
		tr.SetStr("error", err.Error())
		return nil, err
	}
	buildSp := tr.Child("merge-pack")
	forest, err := core.Build(w.genDir(), sources, core.BuildOptions{
		PoolPages:      cfg.PoolPages,
		ExhaustionWait: cfg.ExhaustionWait,
		Domains:        cfg.Domains,
		Stats:          cfg.Stats,
		Workers:        cfg.Workers,
		Span:           buildSp,
	})
	o.ObservePhase("materialize_build", buildSp)
	if err != nil {
		tr.SetStr("error", err.Error())
		pager.RemoveAll(w.genDir())
		return nil, err
	}
	w.forest = forest
	swapSp := tr.Child("swap")
	defer o.ObservePhase("materialize_swap", swapSp)
	if err := w.writeCatalog(w.generation); err != nil {
		forest.Close()
		// The rename inside the atomic catalog write may have committed
		// before the failure (e.g. the directory fsync failed). Only when
		// the catalog is known gone is the generation safe to delete;
		// otherwise leave it for Open to serve or sweep.
		if pager.RemoveAll(filepath.Join(cfg.Dir, warehouseCatalog)) == nil {
			pager.RemoveAll(w.genDir())
		}
		tr.SetStr("error", err.Error())
		return nil, err
	}
	w.SetObserver(o)
	return w, nil
}

// sources assembles the forest build inputs: every view's data plus the
// configured replica sort orders.
func (w *Warehouse) sources(data map[string]*cube.ViewData, scratch string) ([]*cube.ViewData, error) {
	sources := make([]*cube.ViewData, 0, len(w.views)+len(w.cfg.Replicas))
	for _, view := range w.views {
		vd, ok := data[view.Key()]
		if !ok {
			return nil, fmt.Errorf("cubetree: view %s not computed", view)
		}
		sources = append(sources, vd)
	}
	for _, order := range w.cfg.Replicas {
		base, ok := data[lattice.CanonKey(order)]
		if !ok {
			return nil, fmt.Errorf("cubetree: replica %v does not match a selected view", order)
		}
		rep, err := cube.Reorder(scratch, base, order, cube.Options{Stats: w.cfg.Stats})
		if err != nil {
			return nil, err
		}
		sources = append(sources, rep)
	}
	return sources, nil
}

func (w *Warehouse) genDir() string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("gen-%06d", w.generation))
}

func (w *Warehouse) writeCatalog(generation int) error {
	cat := warehouseJSON{
		Generation: generation,
		Domains:    map[string]int64{},
		Schema:     w.schema.Strings(),
		PoolPages:  w.cfg.PoolPages,
	}
	for a, d := range w.cfg.Domains {
		cat.Domains[string(a)] = d
	}
	for _, v := range w.views {
		vj := viewJSON{Name: v.Name}
		for _, a := range v.Attrs {
			vj.Attrs = append(vj.Attrs, string(a))
		}
		cat.Views = append(cat.Views, vj)
	}
	for _, order := range w.cfg.Replicas {
		var oo []string
		for _, a := range order {
			oo = append(oo, string(a))
		}
		cat.Replicas = append(cat.Replicas, oo)
	}
	data, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return err
	}
	return pager.WriteFileAtomic(filepath.Join(w.cfg.Dir, warehouseCatalog), data, 0o644)
}

// Open loads an existing warehouse from dir. stats may be nil.
//
// Open performs crash recovery before serving: generation and scratch
// directories not referenced by the catalog — debris of a Materialize or
// Update killed mid-flight — are deleted, and the referenced generation is
// verified to exist with well-formed tree headers. Because the catalog swap
// is atomic, the referenced generation is always complete: Open serves
// exactly the state of the last committed refresh.
func Open(dir string, stats *Stats) (*Warehouse, error) {
	raw, err := os.ReadFile(filepath.Join(dir, warehouseCatalog))
	if err != nil {
		return nil, fmt.Errorf("cubetree: open warehouse: %w", err)
	}
	var cat warehouseJSON
	if err := json.Unmarshal(raw, &cat); err != nil {
		return nil, fmt.Errorf("cubetree: parse warehouse catalog: %w", err)
	}
	sweepStale(dir, cat.Generation, stats)
	cfg := Config{Dir: dir, PoolPages: cat.PoolPages, Stats: stats,
		Domains: map[Attr]int64{}}
	for a, d := range cat.Domains {
		cfg.Domains[Attr(a)] = d
	}
	for _, oo := range cat.Replicas {
		order := make([]Attr, len(oo))
		for i, a := range oo {
			order[i] = Attr(a)
		}
		cfg.Replicas = append(cfg.Replicas, order)
	}
	schema, err := lattice.ParseSchema(cat.Schema)
	if err != nil {
		return nil, fmt.Errorf("cubetree: %w", err)
	}
	cfg.ExtraMeasures = schema.Extras()
	w := &Warehouse{cfg: cfg, schema: schema, generation: cat.Generation}
	for _, vj := range cat.Views {
		attrs := make([]Attr, len(vj.Attrs))
		for i, a := range vj.Attrs {
			attrs[i] = Attr(a)
		}
		w.views = append(w.views, View{Name: vj.Name, Attrs: attrs})
	}
	forest, err := core.Open(w.genDir(), stats)
	if err != nil {
		return nil, err
	}
	w.forest = forest
	return w, nil
}

// sweepStale is the recovery sweep: it deletes generation directories other
// than the committed one, scratch state, and atomic-write temp files — all
// debris only a crash can leave behind. Removal is best-effort; anything
// that survives is retried on the next Open. Removals are counted in
// stats.StaleRemoved.
func sweepStale(dir string, generation int, stats *Stats) {
	keep := fmt.Sprintf("gen-%06d", generation)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var removed uint64
	for _, e := range entries {
		name := e.Name()
		stale := filepath.Join(dir, name)
		switch {
		case name == keep:
		case e.IsDir() && (name == "scratch" || strings.HasPrefix(name, "gen-")):
			if os.RemoveAll(stale) == nil {
				removed++
			}
		case !e.IsDir() && strings.Contains(name, ".tmp-"):
			if os.Remove(stale) == nil {
				removed++
			}
		}
	}
	if stats != nil && removed > 0 {
		stats.AddStaleRemoved(removed)
	}
}

// Views returns the warehouse's view definitions.
func (w *Warehouse) Views() []View { return append([]View(nil), w.views...) }

// SetExhaustionWait retunes how long a query blocked on a fully pinned
// buffer pool waits before failing with pager.ErrPoolExhausted; d <= 0
// restores the 200ms default. Useful after Open, where the tuning is not
// part of the persisted catalog; it carries over refreshes.
func (w *Warehouse) SetExhaustionWait(d time.Duration) {
	w.mu.Lock()
	w.cfg.ExhaustionWait = d
	forest := w.forest
	w.mu.Unlock()
	forest.SetExhaustionWait(d)
}

// UseHierarchies re-declares attribute hierarchies after Open (hierarchy
// mapping functions are not persisted in the catalog). It affects only the
// efficiency of subsequent Updates, never results.
func (w *Warehouse) UseHierarchies(hs ...Hierarchy) {
	w.cfg.Hierarchies = append([]Hierarchy(nil), hs...)
}

// Domains returns the attribute domain sizes recorded at materialization.
func (w *Warehouse) Domains() map[Attr]int64 {
	out := make(map[Attr]int64, len(w.cfg.Domains))
	for a, d := range w.cfg.Domains {
		out[a] = d
	}
	return out
}

// Generation returns the current forest generation (1 after Materialize,
// +1 per Update).
func (w *Warehouse) Generation() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.generation
}

// Query answers a slice query from the best-placed view or replica; it is
// QueryProfiledCtx without a context or a profile. It is safe for concurrent
// use, including while an Update is in progress.
func (w *Warehouse) Query(q Query) ([]Row, error) {
	return w.QueryProfiledCtx(context.Background(), q, nil)
}

// QueryProfiledCtx answers q under ctx: when ctx is cancelled or past its
// deadline, an in-flight leaf scan stops within one leaf page and the
// context's error is returned, so servers can enforce per-request timeouts
// that actually stop the work. A non-nil prof is filled with an
// EXPLAIN-ANALYZE-style breakdown of the execution (view routed, points
// scanned, zone-map leaf pages skipped vs read, pool hit/miss delta, wall
// time); a nil prof costs nothing.
func (w *Warehouse) QueryProfiledCtx(ctx context.Context, q Query, prof *QueryProfile) ([]Row, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.forest.ExecuteProfiledCtx(ctx, q, prof)
}

// QueryBatchCtx answers qs with up to parallelism concurrent workers (<= 1
// means serial) and returns one result slice per query, in query order.
// Each query acquires the generation read lock independently, so a batch
// may straddle a concurrent Update: every individual query sees exactly one
// committed generation, but different queries of the batch may see
// different ones — the same guarantee concurrent single Queries have.
// Serial and parallel batches return identical results for a fixed
// generation. Queries not yet started when ctx is done or a query has failed
// are never dispatched, in-flight scans are abandoned, and the context's or
// the failed query's error is returned (see workload.ExecuteBatch).
func (w *Warehouse) QueryBatchCtx(ctx context.Context, qs []Query, parallelism int) ([][]Row, error) {
	return workload.ExecuteBatch(ctx, func(ctx context.Context, q Query) ([]Row, error) {
		return w.QueryProfiledCtx(ctx, q, nil)
	}, qs, parallelism, w.obs)
}

// Update applies an increment: the delta of every view is computed from
// rows with the same sort pipeline used at load, then merge-packed with the
// current forest into a new generation. On success the warehouse switches
// to the new generation and removes the old one. Queries may run
// concurrently with an Update (they see the old generation until the
// switch); concurrent Updates are not supported.
func (w *Warehouse) Update(rows RowIter) error {
	p, err := w.BeginUpdate(rows)
	if err != nil {
		return err
	}
	return p.Commit()
}

// PendingUpdate is a refresh that has been fully prepared — the delta
// sorted and merge-packed into the next generation's forest on disk — but
// not yet committed. Queries keep flowing against the old generation until
// Commit, which is cheap (a catalog rename plus an in-memory pointer swap);
// Abort discards the prepared generation and leaves the warehouse exactly
// as it was. Splitting the refresh this way lets a coordinator run the long
// prepare phase on every shard in parallel and then commit all shards
// inside one brief query-blocking window, so no scatter ever observes a mix
// of generations. Exactly one of Commit or Abort must be called; a
// PendingUpdate is not safe for concurrent use with another BeginUpdate on
// the same warehouse.
type PendingUpdate struct {
	w      *Warehouse
	next   *core.Forest
	oldGen int
	newGen int
	newDir string
	tr     *obs.Span
	o      *obs.Observer
	mu     sync.Mutex
	done   bool
}

// BeginUpdate runs the prepare phase of Update: delta sort, reorder, and
// merge-pack into the next generation directory. On success the returned
// PendingUpdate holds the built-but-uncommitted forest; on failure nothing
// changed and the half-built generation has been removed.
func (w *Warehouse) BeginUpdate(rows RowIter) (*PendingUpdate, error) {
	o := w.obs
	tr := o.StartTrace("refresh")
	fail := func(err error) (*PendingUpdate, error) {
		tr.SetStr("error", err.Error())
		tr.End()
		return nil, err
	}

	scratch := filepath.Join(w.cfg.Dir, "scratch")
	sortSp := tr.Child("delta-sort")
	perView, err := cube.Compute(scratch, rows, w.views, cube.Options{
		MemLimit:    w.cfg.MemLimit,
		Stats:       w.cfg.Stats,
		Schema:      w.schema,
		Hierarchies: w.cfg.Hierarchies,
		Workers:     w.cfg.Workers,
		Span:        sortSp,
	})
	o.ObservePhase("refresh_sort", sortSp)
	if err != nil {
		return fail(err)
	}
	defer removeAll(perView, scratch)

	w.mu.RLock()
	oldForest, oldGen := w.forest, w.generation
	w.mu.RUnlock()

	reorderSp := tr.Child("delta-reorder")
	deltas, err := oldForest.DeltasFor(scratch, perView)
	o.ObservePhase("refresh_reorder", reorderSp)
	if err != nil {
		return fail(err)
	}
	newGen := oldGen + 1
	newDir := filepath.Join(w.cfg.Dir, fmt.Sprintf("gen-%06d", newGen))
	mergeSp := tr.Child("merge-pack")
	w.refresh.Store(newRefreshProgress(oldForest, deltas, w.cfg.Stats))
	defer w.refresh.Store(nil)
	next, err := oldForest.MergeUpdate(newDir, deltas, core.BuildOptions{
		PoolPages:      w.cfg.PoolPages,
		ExhaustionWait: w.cfg.ExhaustionWait,
		Domains:        w.cfg.Domains,
		Stats:          w.cfg.Stats,
		Span:           mergeSp,
	})
	o.ObservePhase("refresh_merge", mergeSp)
	if err != nil {
		pager.RemoveAll(newDir) // don't leak the half-built generation
		return fail(err)
	}
	next.SetObserver(o)
	return &PendingUpdate{
		w: w, next: next, oldGen: oldGen, newGen: newGen, newDir: newDir,
		tr: tr, o: o,
	}, nil
}

// Generation returns the generation number the pending update will commit.
func (p *PendingUpdate) Generation() int { return p.newGen }

// Commit makes the prepared generation authoritative: the catalog rename is
// the commit point, then the in-memory forest is swapped and the old
// generation removed. On failure the old generation stays authoritative on
// disk and in memory, and the prepared one is discarded.
func (p *PendingUpdate) Commit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return fmt.Errorf("cubetree: pending update already committed or aborted")
	}
	p.done = true
	w := p.w
	defer p.tr.End()
	swapSp := p.tr.Child("swap")
	if err := w.writeCatalog(p.newGen); err != nil {
		p.next.Close()
		// The rename may have committed generation newGen before the
		// failure. Put the old catalog back; only once it is authoritative
		// again is the new generation safe to delete. If the restore also
		// fails, keep both generations — Open serves whichever the on-disk
		// catalog names and sweeps the other.
		if w.writeCatalog(p.oldGen) == nil {
			pager.RemoveAll(p.newDir)
		}
		p.o.ObservePhase("refresh_swap", swapSp)
		p.tr.SetStr("error", err.Error())
		return err
	}
	w.mu.Lock()
	oldForest := w.forest
	w.forest = p.next
	w.generation = p.newGen
	w.mu.Unlock()
	p.o.ObservePhase("refresh_swap", swapSp)
	p.tr.SetInt("generation", int64(p.newGen))
	oldForest.Remove()
	return nil
}

// Abort discards the prepared generation. It is a no-op after Commit or a
// previous Abort.
func (p *PendingUpdate) Abort() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return nil
	}
	p.done = true
	p.tr.SetStr("outcome", "aborted")
	p.tr.End()
	p.next.Close()
	return pager.RemoveAll(p.newDir)
}

// newRefreshProgress sizes the merge-pack about to run: the new generation
// rewrites every page of the old forest plus roughly proportional room for
// the delta points, all as sequential writes on cfg.Stats.
func newRefreshProgress(old *core.Forest, deltas map[string]*cube.ViewData, stats *pager.Stats) *refreshProgress {
	rp := &refreshProgress{Start: time.Now()}
	if stats != nil {
		rp.StartWrites = stats.SeqWrites()
	}
	expected := float64(old.TotalPages())
	if oldPoints := old.Points(); oldPoints > 0 {
		var deltaRows int64
		for _, vd := range deltas {
			deltaRows += vd.Rows
		}
		expected *= 1 + float64(deltaRows)/float64(oldPoints)
	}
	rp.ExpectedPages = uint64(expected)
	return rp
}

// Stat summarizes the warehouse's physical layout.
type Stat struct {
	// Trees is the number of Cubetrees in the forest.
	Trees int
	// Views counts placements, including replicas.
	Views int
	// Points is the number of stored aggregate tuples.
	Points int64
	// Bytes is the total on-disk size.
	Bytes int64
	// LeafFraction is the share of pages that are compressed leaves.
	LeafFraction float64
}

// Stat reports the warehouse's physical layout.
func (w *Warehouse) Stat() Stat {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s := Stat{
		Trees:  w.forest.Trees(),
		Views:  len(w.forest.Placements()),
		Points: w.forest.Points(),
		Bytes:  w.forest.TotalBytes(),
	}
	if tp := w.forest.TotalPages(); tp > 0 {
		s.LeafFraction = float64(w.forest.LeafPages()) / float64(tp)
	}
	return s
}

// DebugInfo is the live warehouse state served at /debug/warehouse: the
// committed generation, the view placements, point/byte totals, buffer-pool
// occupancy per tree (with per-shard detail), and the per-view I/O heatmap —
// each leaf run's extent and the page-read traffic attributed to it, in
// placement order, so a renderer can draw the forest's leaf space with hot
// runs highlighted.
type DebugInfo struct {
	Generation   int                  `json:"generation"`
	Trees        int                  `json:"trees"`
	Views        []string             `json:"views"`
	Placements   []string             `json:"placements"`
	Points       int64                `json:"points"`
	Bytes        int64                `json:"bytes"`
	LeafFraction float64              `json:"leaf_fraction"`
	Pools        []pager.PoolInfo     `json:"pools"`
	ViewIO       []core.ViewAnalytics `json:"view_io,omitempty"`
}

// DebugInfo reports the warehouse's live state for the debug endpoint.
func (w *Warehouse) DebugInfo() DebugInfo {
	w.mu.RLock()
	defer w.mu.RUnlock()
	d := DebugInfo{
		Generation: w.generation,
		Trees:      w.forest.Trees(),
		Points:     w.forest.Points(),
		Bytes:      w.forest.TotalBytes(),
		Pools:      w.forest.PoolInfos(),
	}
	if tp := w.forest.TotalPages(); tp > 0 {
		d.LeafFraction = float64(w.forest.LeafPages()) / float64(tp)
	}
	for _, v := range w.views {
		d.Views = append(d.Views, v.String())
	}
	for _, p := range w.forest.Placements() {
		d.Placements = append(d.Placements, fmt.Sprintf("%s @ tree%d", p.View, p.Tree))
	}
	d.ViewIO = w.forest.ViewAnalytics()
	return d
}

// ViewAnalytics reports per-view storage and workload analytics: each
// placement's leaf-run shape (pages, points, compression ratio) plus the
// query and page-read traffic attributed to it since the observer was
// attached. Storage fields are always populated; traffic counters need
// SetObserver.
func (w *Warehouse) ViewAnalytics() []ViewAnalytics {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.forest.ViewAnalytics()
}

// Close flushes and closes the forest.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.forest.Close()
}

// Verify checks the structural invariants of the whole forest (packing
// order, MBR containment, counts, catalog consistency). It reads every
// page, so it is intended for integrity checks, not hot paths.
func (w *Warehouse) Verify() error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.forest.Validate()
}

// Remove closes the warehouse and deletes its directory.
func (w *Warehouse) Remove() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.forest.Close()
	return os.RemoveAll(w.cfg.Dir)
}

// removeAll deletes computed view data and the scratch directory. The
// scratch removal goes through the pager's fault layer so a simulated crash
// leaves the debris for the recovery sweep, as a real one would.
func removeAll(data map[string]*cube.ViewData, scratch string) {
	for _, vd := range data {
		vd.Remove()
	}
	pager.RemoveAll(scratch)
}
