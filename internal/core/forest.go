package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
	"cubetree/internal/rtree"
)

// Placement records where one view (or view replica) lives: which tree and
// which leaf run. The view's attribute order is its coordinate mapping —
// attribute i is coordinate i of the tree.
type Placement struct {
	View lattice.View
	Tree int
	Run  rtree.RunInfo
}

// BuildOptions configures forest construction.
type BuildOptions struct {
	// PoolPages is the buffer pool capacity per tree (default 256 pages).
	PoolPages int
	// ExhaustionWait bounds the buffer pools' pinned-frame wait before
	// reporting pager.ErrPoolExhausted (0 = pager.DefaultExhaustionWait).
	ExhaustionWait time.Duration
	// Fanout caps node capacity for tests (0 = page capacity).
	Fanout int
	// Domains provides attribute domain sizes for the query planner's
	// selectivity estimates. Optional but strongly recommended.
	Domains map[lattice.Attr]int64
	// Stats receives the forest's page I/O accounting. May be nil.
	Stats *pager.Stats
	// Workers bounds how many trees are packed concurrently (default 1;
	// sequential packing matches the paper's single-disk setting and keeps
	// sequential-I/O accounting faithful).
	Workers int
	// Mapping overrides the SelectMapping algorithm with an explicit
	// view-to-tree assignment (e.g. PerViewMapping for ablations). It must
	// validate against the build's sources.
	Mapping *Mapping
	// Span, when non-nil, receives one child span per packed tree (with a
	// nested fsync span), tracing the merge-pack phase of a refresh.
	Span *obs.Span
}

// Forest is a collection of Cubetrees materializing a set of views, the
// unit the paper calls "a forest of Cubetrees".
type Forest struct {
	dir        string
	trees      []*rtree.Tree
	pools      []*pager.Pool
	placements []Placement
	domains    map[lattice.Attr]int64
	schema     lattice.Schema
	stats      *pager.Stats
	poolPages  int
	fanout     int
	obs        *obs.Observer
	// viewMetrics is parallel to placements; non-nil only while an observer
	// is attached (see analytics.go).
	viewMetrics []viewMetrics
}

// SetObserver attaches an observability sink: every subsequent Execute is
// traced, timed, and slow-logged, per-view metric families are registered,
// and the buffer pools attribute leaf-page reads to the views that own the
// pages. A nil observer (the default) keeps the query path entirely
// uninstrumented. Not safe to call concurrently with queries; attach before
// serving.
func (f *Forest) SetObserver(o *obs.Observer) {
	f.obs = o
	f.attachAnalytics(o)
}

// Observer returns the attached observability sink, or nil.
func (f *Forest) Observer() *obs.Observer { return f.obs }

// SetExhaustionWait retunes every tree pool's pinned-frame wait bound; d <= 0
// restores the pager default. Safe on a live forest.
func (f *Forest) SetExhaustionWait(d time.Duration) {
	for _, p := range f.pools {
		if p != nil {
			p.SetExhaustionWait(d)
		}
	}
}

// PoolInfos reports buffer-pool occupancy per tree, for debug endpoints.
func (f *Forest) PoolInfos() []pager.PoolInfo {
	out := make([]pager.PoolInfo, 0, len(f.pools))
	for _, p := range f.pools {
		if p != nil {
			out = append(out, p.Info())
		}
	}
	return out
}

// Schema returns the measure schema stored per point.
func (f *Forest) Schema() lattice.Schema { return append(lattice.Schema(nil), f.schema...) }

const catalogFile = "forest.json"

type catalogJSON struct {
	Trees      []string         `json:"trees"`
	Placements []placementJSON  `json:"placements"`
	Domains    map[string]int64 `json:"domains"`
	Schema     []string         `json:"schema,omitempty"`
	PoolPages  int              `json:"pool_pages"`
	Fanout     int              `json:"fanout,omitempty"`
}

type placementJSON struct {
	Name  string   `json:"name,omitempty"`
	Attrs []string `json:"attrs"`
	Tree  int      `json:"tree"`
	Run   int      `json:"run"`
}

// Build bulk-loads a forest in dir from sorted view data. Each source must
// be in pack order of its own attribute sequence (cube.Compute produces
// exactly that); replicas in other sort orders are passed as additional
// sources (see cube.Reorder). Coordinates must be strictly positive.
func Build(dir string, sources []*cube.ViewData, opts BuildOptions) (*Forest, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no views to build")
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 256
	}
	if opts.Stats == nil {
		opts.Stats = &pager.Stats{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	views := make([]lattice.View, len(sources))
	schema := sources[0].Schema
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	for i, s := range sources {
		views[i] = s.View
		if !s.Schema.Equal(schema) {
			return nil, fmt.Errorf("core: view %s schema %v differs from %v", s.View, s.Schema, schema)
		}
	}
	mapping := SelectMapping(views)
	if opts.Mapping != nil {
		mapping = *opts.Mapping
	}
	if err := mapping.Validate(views); err != nil {
		return nil, err
	}

	f := &Forest{
		dir:       dir,
		domains:   opts.Domains,
		schema:    schema,
		stats:     opts.Stats,
		poolPages: opts.PoolPages,
		fanout:    opts.Fanout,
	}
	results := make([]treeBuild, len(mapping.Trees))
	buildOne := func(t int) error {
		spec := mapping.Trees[t]
		tsp := opts.Span.Child("pack-tree")
		tsp.SetInt("tree", int64(t))
		defer tsp.End()
		path := filepath.Join(dir, fmt.Sprintf("tree%d.ct", t))
		pf, err := pager.Create(path, opts.Stats)
		if err != nil {
			return err
		}
		pool := pager.NewPoolConfig(pf, opts.PoolPages, pager.Config{ExhaustionWait: opts.ExhaustionWait})
		fail := func(err error) error {
			pool.Close()
			return err
		}
		b, err := rtree.NewBuilder(pool, spec.Dim, rtree.Options{
			Measures: schema.Len(), Fanout: opts.Fanout})
		if err != nil {
			return fail(err)
		}
		for _, vi := range spec.Views {
			src := sources[vi]
			arity := src.View.Arity()
			if err := b.BeginRun(arity); err != nil {
				return fail(err)
			}
			addErr := src.Iterate(func(tuple []int64) error {
				for j := 0; j < arity; j++ {
					if tuple[j] < 1 {
						return fmt.Errorf("core: view %s has non-positive coordinate %d", src.View, tuple[j])
					}
				}
				return b.Add(tuple[:arity], tuple[arity:arity+schema.Len()])
			})
			if addErr != nil {
				return fail(addErr)
			}
			run, err := b.EndRun()
			if err != nil {
				return fail(err)
			}
			results[t].placements = append(results[t].placements,
				Placement{View: src.View, Tree: t, Run: run})
		}
		tree, err := b.Finish()
		if err != nil {
			return fail(err)
		}
		if err := tree.Close(); err != nil { // flush sequentially to disk
			return fail(err)
		}
		// Fsync before the catalog can reference this tree: the catalog
		// rename is the commit point, so everything it names must already
		// be durable.
		fsp := tsp.Child("fsync")
		if err := pf.Sync(); err != nil {
			fsp.End()
			return fail(err)
		}
		fsp.End()
		tsp.SetInt("points", tree.Count())
		tsp.SetInt("pages", int64(tree.Pages()))
		results[t].tree = tree
		results[t].pool = pool
		return nil
	}
	// Trees are independent; build them concurrently when Workers > 1.
	if err := runTreeBuilds(opts.Workers, len(mapping.Trees), buildOne); err != nil {
		for _, r := range results {
			if r.pool != nil {
				r.pool.Close()
			}
		}
		f.Close()
		return nil, err
	}
	for _, r := range results {
		f.trees = append(f.trees, r.tree)
		f.pools = append(f.pools, r.pool)
		f.placements = append(f.placements, r.placements...)
	}
	if err := f.writeCatalog(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// treeBuild collects one tree's build outputs so parallel builds keep the
// catalog deterministic (placements in tree order).
type treeBuild struct {
	tree       *rtree.Tree
	pool       *pager.Pool
	placements []Placement
}

// runTreeBuilds runs buildOne(0..n-1) with up to workers goroutines.
func runTreeBuilds(workers, n int, buildOne func(int) error) error {
	if workers <= 1 || n <= 1 {
		for t := 0; t < n; t++ {
			if err := buildOne(t); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, workers)
	errs := make(chan error, n)
	for t := 0; t < n; t++ {
		t := t
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errs <- buildOne(t)
		}()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f *Forest) writeCatalog() error {
	cat := catalogJSON{PoolPages: f.poolPages, Fanout: f.fanout,
		Schema: f.schema.Strings(), Domains: map[string]int64{}}
	for a, d := range f.domains {
		cat.Domains[string(a)] = d
	}
	for t := range f.trees {
		cat.Trees = append(cat.Trees, fmt.Sprintf("tree%d.ct", t))
	}
	for _, p := range f.placements {
		attrs := make([]string, len(p.View.Attrs))
		for i, a := range p.View.Attrs {
			attrs[i] = string(a)
		}
		// Locate the run index within its tree.
		runIdx := -1
		for i, r := range f.trees[p.Tree].Runs() {
			if r == p.Run {
				runIdx = i
				break
			}
		}
		if runIdx < 0 {
			return fmt.Errorf("core: placement %s run not found in tree %d", p.View, p.Tree)
		}
		cat.Placements = append(cat.Placements, placementJSON{
			Name: p.View.Name, Attrs: attrs, Tree: p.Tree, Run: runIdx,
		})
	}
	data, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return err
	}
	return pager.WriteFileAtomic(filepath.Join(f.dir, catalogFile), data, 0o644)
}

// Open loads a previously built forest from dir. stats may be nil.
func Open(dir string, stats *pager.Stats) (*Forest, error) {
	data, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return nil, fmt.Errorf("core: open forest: %w", err)
	}
	var cat catalogJSON
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, fmt.Errorf("core: parse catalog: %w", err)
	}
	if stats == nil {
		stats = &pager.Stats{}
	}
	schema, err := lattice.ParseSchema(cat.Schema)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f := &Forest{
		dir:       dir,
		domains:   map[lattice.Attr]int64{},
		schema:    schema,
		stats:     stats,
		poolPages: cat.PoolPages,
		fanout:    cat.Fanout,
	}
	for a, d := range cat.Domains {
		f.domains[lattice.Attr(a)] = d
	}
	if f.poolPages <= 0 {
		f.poolPages = 256
	}
	for _, name := range cat.Trees {
		pf, err := pager.Open(filepath.Join(dir, name), stats)
		if err != nil {
			f.Close()
			return nil, err
		}
		pool := pager.NewPool(pf, f.poolPages)
		tree, err := rtree.Open(pool)
		if err != nil {
			pool.Close()
			f.Close()
			return nil, err
		}
		f.trees = append(f.trees, tree)
		f.pools = append(f.pools, pool)
	}
	for _, p := range cat.Placements {
		if p.Tree < 0 || p.Tree >= len(f.trees) {
			f.Close()
			return nil, fmt.Errorf("core: catalog references tree %d of %d", p.Tree, len(f.trees))
		}
		runs := f.trees[p.Tree].Runs()
		if p.Run < 0 || p.Run >= len(runs) {
			f.Close()
			return nil, fmt.Errorf("core: catalog references run %d of %d", p.Run, len(runs))
		}
		attrs := make([]lattice.Attr, len(p.Attrs))
		for i, a := range p.Attrs {
			attrs[i] = lattice.Attr(a)
		}
		f.placements = append(f.placements, Placement{
			View: lattice.View{Name: p.Name, Attrs: attrs},
			Tree: p.Tree,
			Run:  runs[p.Run],
		})
	}
	return f, nil
}

// Dir returns the forest's directory.
func (f *Forest) Dir() string { return f.dir }

// Placements returns every view placement (including replicas).
func (f *Forest) Placements() []Placement {
	return append([]Placement(nil), f.placements...)
}

// Trees returns the number of Cubetrees in the forest.
func (f *Forest) Trees() int { return len(f.trees) }

// Tree returns the i-th Cubetree.
func (f *Forest) Tree(i int) *rtree.Tree { return f.trees[i] }

// Stats returns the forest's I/O accounting sink.
func (f *Forest) Stats() *pager.Stats { return f.stats }

// Domains returns the attribute domains known to the planner.
func (f *Forest) Domains() map[lattice.Attr]int64 { return f.domains }

// TotalBytes returns the on-disk size of all trees.
func (f *Forest) TotalBytes() int64 {
	var n int64
	for _, t := range f.trees {
		n += t.Bytes()
	}
	return n
}

// TotalPages and LeafPages summarize the forest's page usage; their ratio
// demonstrates the paper's claim that ~90% of pages are compressed leaves.
func (f *Forest) TotalPages() uint64 {
	var n uint64
	for _, t := range f.trees {
		n += uint64(t.Pages())
	}
	return n
}

// LeafPages returns the number of leaf pages across all trees.
func (f *Forest) LeafPages() uint64 {
	var n uint64
	for _, t := range f.trees {
		n += uint64(t.LeafPages())
	}
	return n
}

// Points returns the total number of stored aggregate points.
func (f *Forest) Points() int64 {
	var n int64
	for _, t := range f.trees {
		n += t.Count()
	}
	return n
}

// Validate checks the structural invariants of every tree (packing order,
// MBR containment, counts) plus catalog consistency (each placement's run
// exists, point totals add up). Intended for tests and the CLI tools'
// -verify flags; cost is a full sequential read of the forest.
func (f *Forest) Validate() error {
	var placed int64
	for _, p := range f.placements {
		if p.Tree < 0 || p.Tree >= len(f.trees) {
			return fmt.Errorf("core: placement %s references tree %d of %d", p.View, p.Tree, len(f.trees))
		}
		found := false
		for _, r := range f.trees[p.Tree].Runs() {
			if r == p.Run {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: placement %s run missing from tree %d", p.View, p.Tree)
		}
		if p.Run.Arity != p.View.Arity() {
			return fmt.Errorf("core: placement %s arity %d, run arity %d",
				p.View, p.View.Arity(), p.Run.Arity)
		}
		placed += p.Run.Points
	}
	if placed != f.Points() {
		return fmt.Errorf("core: placements cover %d points, trees hold %d", placed, f.Points())
	}
	for i, t := range f.trees {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("core: tree %d: %w", i, err)
		}
	}
	return nil
}

// Close flushes and closes every tree.
func (f *Forest) Close() error {
	var first error
	for i, t := range f.trees {
		if t != nil {
			if err := t.Close(); err != nil && first == nil {
				first = err
			}
		}
		if f.pools[i] != nil {
			if err := f.pools[i].Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	f.trees = nil
	f.pools = nil
	return first
}

// Remove closes the forest and deletes its files. The removal goes through
// the pager's fault-injection layer so crash tests see interrupted cleanups.
func (f *Forest) Remove() error {
	dir := f.dir
	f.Close()
	return pager.RemoveAll(dir)
}
