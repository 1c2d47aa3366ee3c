package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cubetree/internal/cube"
	"cubetree/internal/pager"
	"cubetree/internal/rtree"
)

// MergeUpdate implements the paper's bulk incremental update (Figure 15):
// for every view run, the old tree's sorted leaves and the view's sorted
// delta are merge-packed into a fresh forest written to newDir with purely
// sequential I/O and linear total time. The old forest remains usable (and
// open) so that queries can continue against it until the switch-over; the
// caller typically closes and removes it afterwards.
//
// deltas maps View.OrderKey() to that placement's sorted delta data (the
// same pack order used at build time; cube.Compute and cube.Reorder produce
// it). Placements without a delta are copied unchanged. Deltas are combined
// into existing points by summing measures.
func (f *Forest) MergeUpdate(newDir string, deltas map[string]*cube.ViewData, opts BuildOptions) (*Forest, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = f.poolPages
	}
	if opts.Fanout == 0 {
		opts.Fanout = f.fanout
	}
	if opts.Stats == nil {
		opts.Stats = f.stats
	}
	if opts.Domains == nil {
		opts.Domains = f.domains
	}
	if err := os.MkdirAll(newDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	nf := &Forest{
		dir:       newDir,
		domains:   opts.Domains,
		schema:    f.schema,
		stats:     opts.Stats,
		poolPages: opts.PoolPages,
		fanout:    opts.Fanout,
	}
	// Group placements by tree, preserving run order.
	byTree := make(map[int][]Placement)
	for _, p := range f.placements {
		byTree[p.Tree] = append(byTree[p.Tree], p)
	}
	for t := range f.trees {
		old := f.trees[t]
		tsp := opts.Span.Child("merge-tree")
		tsp.SetInt("tree", int64(t))
		path := filepath.Join(newDir, fmt.Sprintf("tree%d.ct", t))
		pf, err := pager.Create(path, opts.Stats)
		if err != nil {
			tsp.End()
			nf.Close()
			return nil, err
		}
		pool := pager.NewPool(pf, opts.PoolPages)
		b, err := rtree.NewBuilder(pool, old.Dim(), rtree.Options{
			Measures: f.schema.Len(), Fanout: opts.Fanout})
		if err != nil {
			tsp.End()
			pool.Close()
			nf.Close()
			return nil, err
		}
		for _, p := range byTree[t] {
			arity := p.View.Arity()
			if err := b.BeginRun(arity); err != nil {
				pool.Close()
				nf.Close()
				return nil, err
			}
			oldIt := old.RunIterator(p.Run)
			var deltaIt rtree.PointIterator = &rtree.SlicePoints{}
			var reader *cube.TupleReader
			if vd, ok := deltas[p.View.OrderKey()]; ok {
				reader, err = vd.Open()
				if err != nil {
					oldIt.Close()
					pool.Close()
					nf.Close()
					return nil, err
				}
				deltaIt = &tupleReaderPoints{r: reader, arity: arity, dim: old.Dim(), nm: f.schema.Len()}
			}
			err = rtree.MergeRun(b, arity, oldIt, deltaIt, func(dst, src []int64) {
				f.schema.Fold(dst, src)
			})
			oldIt.Close()
			if reader != nil {
				reader.Close()
			}
			if err != nil {
				pool.Close()
				nf.Close()
				return nil, err
			}
			run, err := b.EndRun()
			if err != nil {
				pool.Close()
				nf.Close()
				return nil, err
			}
			nf.placements = append(nf.placements, Placement{View: p.View, Tree: t, Run: run})
		}
		tree, err := b.Finish()
		if err != nil {
			tsp.End()
			pool.Close()
			nf.Close()
			return nil, err
		}
		if err := tree.Close(); err != nil {
			tsp.End()
			pool.Close()
			nf.Close()
			return nil, err
		}
		// Durable before the new generation's catalog can name it.
		fsp := tsp.Child("fsync")
		if err := pf.Sync(); err != nil {
			fsp.End()
			tsp.End()
			pool.Close()
			nf.Close()
			return nil, err
		}
		fsp.End()
		tsp.SetInt("points", tree.Count())
		tsp.SetInt("pages", int64(tree.Pages()))
		tsp.End()
		nf.trees = append(nf.trees, tree)
		nf.pools = append(nf.pools, pool)
	}
	if err := nf.writeCatalog(); err != nil {
		nf.Close()
		return nil, err
	}
	return nf, nil
}

// tupleReaderPoints adapts a cube.TupleReader ([attrs..., measures...]) to
// an rtree.PointIterator with zero-padded coordinates.
type tupleReaderPoints struct {
	r        *cube.TupleReader
	arity    int
	dim      int
	nm       int // measures per point
	coords   []int64
	measures []int64
	done     bool
}

func (a *tupleReaderPoints) Next() ([]int64, []int64, error) {
	if a.done {
		return nil, nil, rtree.ErrDone
	}
	tuple, err := a.r.Next()
	if err == io.EOF {
		a.done = true
		return nil, nil, rtree.ErrDone
	}
	if err != nil {
		return nil, nil, err
	}
	if a.coords == nil {
		a.coords = make([]int64, a.dim)
		a.measures = make([]int64, a.nm)
	}
	for j := 0; j < a.arity; j++ {
		a.coords[j] = tuple[j]
	}
	for j := a.arity; j < a.dim; j++ {
		a.coords[j] = 0
	}
	copy(a.measures, tuple[a.arity:a.arity+a.nm])
	return a.coords, a.measures, nil
}

func (a *tupleReaderPoints) Close() error { return nil }

// DeltasFor prepares the per-placement delta map for MergeUpdate from
// per-view deltas keyed by View.Key(): each placement (including replicas
// in other sort orders) gets its delta re-sorted into its own pack order.
// scratch holds intermediate files.
func (f *Forest) DeltasFor(scratch string, perView map[string]*cube.ViewData) (map[string]*cube.ViewData, error) {
	out := make(map[string]*cube.ViewData)
	for _, p := range f.placements {
		vd, ok := perView[p.View.Key()]
		if !ok {
			continue
		}
		if vd.View.OrderKey() == p.View.OrderKey() {
			out[p.View.OrderKey()] = vd
			continue
		}
		re, err := cube.Reorder(scratch, vd, p.View.Attrs, cube.Options{Stats: f.stats})
		if err != nil {
			return nil, err
		}
		out[p.View.OrderKey()] = re
	}
	return out, nil
}
