// Package cube computes materialized aggregate views from a fact stream
// using sort-based aggregation in the style of Agrawal et al. (VLDB 1996),
// as the paper's loading pipeline does: each selected view is derived from
// its smallest already-computed parent (the dependency graph of Figure 10),
// falling back to a single shared pass over the fact table for the views no
// other selected view can derive.
//
// Views are produced as ViewData files: flat runs of fixed-width tuples
// [attr values..., SUM, COUNT] sorted in Cubetree pack order, ready either
// to bulk-load a Cubetree forest or to populate conventional tables.
package cube

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"cubetree/internal/enc"
	"cubetree/internal/extsort"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
)

// RowIter streams fact rows. Value must answer for every attribute of every
// view being computed (including hierarchy attributes like "brand"). An
// iterator that can fail mid-stream (a parser, say) also has an Err() error
// method, for its consumer to check once Next has returned false.
type RowIter interface {
	// Next advances to the next row, reporting whether one exists.
	Next() bool
	// Value returns the named attribute of the current row.
	Value(attr lattice.Attr) (int64, error)
	// Measure returns the aggregated measure of the current row.
	Measure() int64
}

// ViewData is one computed view stored as a flat file of fixed-width tuples
// [attrs..., SUM, COUNT] in pack order of the view's attribute sequence
// (last attribute major).
type ViewData struct {
	View lattice.View
	Path string
	Rows int64
	// Schema lists the stored measures (SUM and COUNT, optionally MIN and
	// MAX — the paper's "multiple aggregation functions for each point").
	Schema lattice.Schema

	stats *pager.Stats
}

// Fields returns the number of int64 fields per tuple (arity + measures).
func (vd *ViewData) Fields() int { return vd.View.Arity() + vd.Schema.Len() }

// Width returns the tuple width in bytes.
func (vd *ViewData) Width() int { return enc.TupleSize(vd.Fields()) }

// Iterate calls fn with each decoded tuple in file order. The slice passed
// to fn is reused between calls.
func (vd *ViewData) Iterate(fn func(tuple []int64) error) error {
	f, err := os.Open(vd.Path)
	if err != nil {
		return fmt.Errorf("cube: open view data: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	width := vd.Width()
	buf := make([]byte, width)
	tuple := make([]int64, vd.Fields())
	var bytes int64
	for {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return fmt.Errorf("cube: read view data: %w", err)
		}
		bytes += int64(width)
		for i := range tuple {
			tuple[i] = enc.Field(buf, i)
		}
		if err := fn(tuple); err != nil {
			return err
		}
	}
	if vd.stats != nil {
		vd.stats.AddSequentialReads(uint64((bytes + pager.PageSize - 1) / pager.PageSize))
	}
	return nil
}

// Remove deletes the backing file.
func (vd *ViewData) Remove() error { return os.Remove(vd.Path) }

// Bytes returns the file size in bytes.
func (vd *ViewData) Bytes() int64 { return vd.Rows * int64(vd.Width()) }

// Options tunes the computation.
type Options struct {
	// MemLimit bounds each external sorter's in-memory buffer (bytes). The
	// sorter pipelines run generation with double buffering, so a sorter
	// that spills holds up to 2x this limit while the spill is in flight.
	MemLimit int
	// Stats receives the sequential I/O charge of the sort/aggregate
	// pipeline. May be nil.
	Stats *pager.Stats
	// Schema selects the stored measures (default SUM, COUNT).
	Schema lattice.Schema
	// Hierarchies declares functional dependencies between attributes
	// (e.g. brand = f(partkey)), letting roll-up views derive from finer
	// views instead of the fact stream.
	Hierarchies []Hierarchy
	// Workers bounds the number of views sorted/derived concurrently
	// (default 1; the paper's testbed was a single CPU, and sequential
	// execution keeps I/O accounting deterministic).
	Workers int
	// Span, when non-nil, receives child spans for the pipeline's phases
	// (fact scan, per-view aggregation and derivation, sorter spills).
	Span *obs.Span
}

// Compute materializes the selected views from one pass over rows plus
// derivations between views. The result maps View.Key() to its data. dir
// holds the output and scratch files. A fact stream that ends on an error
// fails Compute: no view is built from a truncated stream.
func Compute(dir string, rows RowIter, views []lattice.View, opts Options) (map[string]*ViewData, error) {
	if opts.MemLimit <= 0 {
		opts.MemLimit = extsort.DefaultMemLimit
	}
	if opts.Stats == nil {
		opts.Stats = &pager.Stats{}
	}
	if opts.Schema == nil {
		opts.Schema = lattice.DefaultSchema()
	}
	if err := opts.Schema.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cube: %w", err)
	}

	ordered := append([]lattice.View(nil), views...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arity() > ordered[j].Arity() })
	for i, v := range ordered {
		for j := 0; j < i; j++ {
			if v.Key() == ordered[j].Key() {
				return nil, fmt.Errorf("cube: duplicate view %s", v)
			}
		}
	}

	hs, err := newHierarchySet(opts.Hierarchies)
	if err != nil {
		return nil, err
	}

	// Views that no other selected view can produce — directly (subset) or
	// through declared hierarchies — are computed from the fact stream in
	// one shared pass.
	fromFact := make([]bool, len(ordered))
	for i, v := range ordered {
		fromFact[i] = true
		for j, p := range ordered {
			if j == i || p.Key() == v.Key() {
				continue
			}
			if _, ok := hs.resolve(v, p); ok {
				fromFact[i] = false
				break
			}
		}
	}

	// Pass over the fact stream, feeding one sorter per fact-derived view.
	sorters := make(map[string]*extsort.Sorter)
	for i, v := range ordered {
		if fromFact[i] {
			sorters[v.Key()] = newViewSorter(dir, v, opts)
		}
	}
	// abandon fails the fact pass; finishing every sorter leaves no spill
	// worker blocked.
	abandon := func(err error) (map[string]*ViewData, error) {
		for _, s := range sorters {
			if it, serr := s.Sort(); serr == nil {
				it.Close()
			}
		}
		return nil, err
	}
	scanSp := opts.Span.Child("fact-scan")
	var nrows int64
	vals := make([]int64, 0, 8)
	mvec := make([]int64, opts.Schema.Len())
	for rows.Next() {
		nrows++
		opts.Schema.Init(mvec, rows.Measure())
		for i, v := range ordered {
			if !fromFact[i] {
				continue
			}
			vals = vals[:0]
			for _, a := range v.Attrs {
				x, err := rows.Value(a)
				if err != nil {
					return abandon(err)
				}
				vals = append(vals, x)
			}
			vals = append(vals, mvec...)
			if err := sorters[v.Key()].AddTuple(vals); err != nil {
				return abandon(err)
			}
		}
	}
	if ec, ok := rows.(interface{ Err() error }); ok && ec.Err() != nil {
		return abandon(ec.Err())
	}
	scanSp.SetInt("rows", nrows)
	scanSp.End()

	result := make(map[string]*ViewData, len(ordered))
	cleanup := func() {
		for _, vd := range result {
			if vd != nil {
				vd.Remove()
			}
		}
	}

	// Aggregate the fact-derived views, in parallel when Workers > 1 (each
	// view owns its sorter and output file; stats are atomic).
	var aggTasks []func() (string, *ViewData, error)
	for i, v := range ordered {
		if !fromFact[i] {
			continue
		}
		v := v
		s := sorters[v.Key()]
		aggTasks = append(aggTasks, func() (string, *ViewData, error) {
			sp := opts.Span.Child("aggregate")
			sp.SetStr("view", v.String())
			vd, err := aggregateSorter(dir, v, s, opts)
			if vd != nil {
				sp.SetInt("rows", vd.Rows)
			}
			sp.End()
			return v.Key(), vd, err
		})
	}
	if err := runTasks(opts.Workers, aggTasks, result); err != nil {
		cleanup()
		return nil, err
	}

	// Derive the remaining views, each from its smallest computed parent.
	// Hierarchy derivations can relate views of equal arity (V{brand} from
	// V{partkey}), so iterate until no progress remains rather than relying
	// on the arity order alone. Views ready in the same round are
	// independent and run in parallel.
	for {
		var round []func() (string, *ViewData, error)
		remaining := 0
		for i, v := range ordered {
			if fromFact[i] || result[v.Key()] != nil {
				continue
			}
			remaining++
			var parent *ViewData
			for _, p := range ordered {
				if p.Key() == v.Key() {
					continue
				}
				pd := result[p.Key()]
				if pd == nil {
					continue
				}
				if _, ok := hs.resolve(v, p); !ok {
					continue
				}
				if parent == nil || pd.Rows < parent.Rows {
					parent = pd
				}
			}
			if parent == nil {
				continue
			}
			v, parent := v, parent
			round = append(round, func() (string, *ViewData, error) {
				sp := opts.Span.Child("derive")
				sp.SetStr("view", v.String())
				sp.SetStr("parent", parent.View.String())
				vd, err := deriveView(dir, v, parent, hs, opts)
				if vd != nil {
					sp.SetInt("rows", vd.Rows)
				}
				sp.End()
				return v.Key(), vd, err
			})
		}
		if remaining == 0 {
			break
		}
		if len(round) == 0 {
			cleanup()
			return nil, fmt.Errorf("cube: derivation stuck with %d views unresolved", remaining)
		}
		if err := runTasks(opts.Workers, round, result); err != nil {
			cleanup()
			return nil, err
		}
	}
	return result, nil
}

// runTasks executes tasks with up to workers goroutines, storing each
// produced ViewData into result under its key. On error the first failure
// is returned after all in-flight tasks finish.
func runTasks(workers int, tasks []func() (string, *ViewData, error), result map[string]*ViewData) error {
	if workers <= 1 || len(tasks) <= 1 {
		for _, task := range tasks {
			key, vd, err := task()
			if err != nil {
				return err
			}
			result[key] = vd
		}
		return nil
	}
	type outcome struct {
		key string
		vd  *ViewData
		err error
	}
	sem := make(chan struct{}, workers)
	out := make(chan outcome, len(tasks))
	for _, task := range tasks {
		task := task
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			key, vd, err := task()
			out <- outcome{key: key, vd: vd, err: err}
		}()
	}
	var first error
	for range tasks {
		o := <-out
		if o.err != nil {
			if first == nil {
				first = o.err
			}
			continue
		}
		result[o.key] = o.vd
	}
	return first
}

// newViewSorter builds a sorter over [attrs..., measures...] tuples in the
// view's pack order (last attribute major).
func newViewSorter(dir string, v lattice.View, opts Options) *extsort.Sorter {
	fields := packOrderFields(v.Arity())
	width := enc.TupleSize(v.Arity() + opts.Schema.Len())
	s := extsort.NewSorter(dir, width, enc.LessByFields(fields), opts.MemLimit, opts.Stats)
	s.SetSpan(opts.Span)
	return s
}

// packOrderFields returns the field comparison order for pack order: the
// last attribute is the major sort key.
func packOrderFields(arity int) []int {
	fields := make([]int, arity)
	for i := range fields {
		fields[i] = arity - 1 - i
	}
	return fields
}

// aggregateSorter drains a sorter, combining adjacent tuples with equal
// attributes, and writes the view data file.
//
// The sorter's parallel merge leaves the relative order of equal-key records
// unspecified (serial merge order was an accident of run layout too). That
// is safe here — and required to stay safe — because adjacent equal keys are
// folded with commutative, associative measure combination (SUM, COUNT,
// MIN, MAX), so the resulting ViewData is byte-identical either way.
func aggregateSorter(dir string, v lattice.View, s *extsort.Sorter, opts Options) (*ViewData, error) {
	it, err := s.Sort()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return writeAggregated(dir, v, it, opts)
}

// writeAggregated consumes a sorted iterator of [attrs..., measures...]
// records and writes one aggregated tuple per distinct attribute
// combination.
func writeAggregated(dir string, v lattice.View, it extsort.Iterator, opts Options) (*ViewData, error) {
	f, err := os.CreateTemp(dir, "view-"+sanitize(v.Key())+"-*.dat")
	if err != nil {
		return nil, fmt.Errorf("cube: create view data: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	arity := v.Arity()
	width := enc.TupleSize(arity + opts.Schema.Len())
	keyFields := make([]int, arity)
	for i := range keyFields {
		keyFields[i] = i
	}
	curM := make([]int64, opts.Schema.Len())
	recM := make([]int64, opts.Schema.Len())
	cur := make([]byte, width)
	haveCur := false
	var rows, bytes int64
	flush := func() error {
		if !haveCur {
			return nil
		}
		if _, err := w.Write(cur); err != nil {
			return err
		}
		rows++
		bytes += int64(width)
		return nil
	}
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, err
		}
		if haveCur && enc.EqualFields(cur, rec, keyFields) {
			for i := range curM {
				curM[i] = enc.Field(cur, arity+i)
				recM[i] = enc.Field(rec, arity+i)
			}
			opts.Schema.Fold(curM, recM)
			for i, m := range curM {
				enc.PutField(cur, arity+i, m)
			}
			continue
		}
		if err := flush(); err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, err
		}
		copy(cur, rec)
		haveCur = true
	}
	if err := flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	opts.Stats.AddSequentialWrites(uint64((bytes + pager.PageSize - 1) / pager.PageSize))
	return &ViewData{View: v, Path: f.Name(), Rows: rows, Schema: opts.Schema, stats: opts.Stats}, nil
}

// deriveView computes child from a parent's data file: project (applying
// hierarchy mappings where needed), re-sort in the child's pack order,
// aggregate.
func deriveView(dir string, child lattice.View, parent *ViewData, hs hierarchySet, opts Options) (*ViewData, error) {
	plan, ok := hs.resolve(child, parent.View)
	if !ok {
		return nil, fmt.Errorf("cube: %s not derivable from %s", child, parent.View)
	}
	s := newViewSorter(dir, child, opts)
	parentArity := parent.View.Arity()
	nm := opts.Schema.Len()
	out := make([]int64, child.Arity()+nm)
	err := parent.Iterate(func(tuple []int64) error {
		for i, src := range plan {
			out[i] = src.value(tuple)
		}
		copy(out[child.Arity():], tuple[parentArity:parentArity+nm])
		return s.AddTuple(out)
	})
	if err != nil {
		return nil, err
	}
	return aggregateSorter(dir, child, s, opts)
}

// WriteTuples materializes an arbitrary pre-aggregated tuple stream as
// ViewData, used by tests and by replica construction. Tuples must already
// be [attrs..., measures...]; they are sorted into the view's pack order
// and re-aggregated (so duplicates are legal).
func WriteTuples(dir string, v lattice.View, tuples [][]int64, opts Options) (*ViewData, error) {
	if opts.MemLimit <= 0 {
		opts.MemLimit = extsort.DefaultMemLimit
	}
	if opts.Stats == nil {
		opts.Stats = &pager.Stats{}
	}
	if opts.Schema == nil {
		opts.Schema = lattice.DefaultSchema()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := newViewSorter(dir, v, opts)
	for _, t := range tuples {
		if err := s.AddTuple(t); err != nil {
			return nil, err
		}
	}
	return aggregateSorter(dir, v, s, opts)
}

// Reorder produces a replica of vd with its attributes permuted to order
// and re-sorted in the replica's pack order — the Datablade's data
// replication scheme for storing a view in multiple sort orders.
func Reorder(dir string, vd *ViewData, order []lattice.Attr, opts Options) (*ViewData, error) {
	if opts.MemLimit <= 0 {
		opts.MemLimit = extsort.DefaultMemLimit
	}
	if opts.Stats == nil {
		opts.Stats = vd.stats
	}
	if opts.Schema == nil {
		opts.Schema = vd.Schema
	}
	if !opts.Schema.Equal(vd.Schema) {
		return nil, fmt.Errorf("cube: replica schema %v differs from source %v", opts.Schema, vd.Schema)
	}
	replica, err := vd.View.Reordered(order)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(order))
	for i, a := range order {
		for j, pa := range vd.View.Attrs {
			if a == pa {
				pos[i] = j
				break
			}
		}
	}
	s := newViewSorter(dir, replica, opts)
	arity := vd.View.Arity()
	nm := vd.Schema.Len()
	out := make([]int64, arity+nm)
	err = vd.Iterate(func(tuple []int64) error {
		for i, p := range pos {
			out[i] = tuple[p]
		}
		copy(out[arity:], tuple[arity:arity+nm])
		return s.AddTuple(out)
	})
	if err != nil {
		return nil, err
	}
	return aggregateSorter(dir, replica, s, opts)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "none"
	}
	return string(out)
}
