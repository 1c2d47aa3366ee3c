package main

// surface.go is the benchmark's one pinned surface: every import of a
// cubetree/internal/... package lives here, behind an adapter small enough
// to read at a glance. Everything else in bench/ reaches the system only
// through the top-level cubetree package and the cubetreed binary. The rule
// (README.md, "One pinned surface"): a PR that renames a symbol used below
// keeps a wrapper under the old name, or a benchmark issue lands first.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cubetree"
	"cubetree/internal/core"
	"cubetree/internal/dist"
	"cubetree/internal/enc"
	"cubetree/internal/extsort"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/rtree"
	"cubetree/internal/sqlish"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

// rangePred is the inclusive range predicate of a cubetree.Query; the
// top-level package aliases Query and Pred but not Range.
type rangePred = workload.Range

// --- tpcd: the fact stream ---------------------------------------------------

func collectFacts(it *tpcd.Iterator) []fact {
	rows := make([]fact, 0, it.Remaining())
	for it.Next() {
		f := it.Fact()
		rows = append(rows, fact{f.PartKey, f.SuppKey, f.CustKey, f.Quantity})
	}
	return rows
}

// tpcdFacts returns the base fact table at scale factor sf and the key
// domains of its three foreign keys.
func tpcdFacts(sf float64, seed uint64) ([]fact, map[cubetree.Attr]int64) {
	ds := tpcd.New(tpcd.Params{SF: sf, Seed: seed})
	return collectFacts(ds.FactRows()), map[cubetree.Attr]int64{
		attrPart: ds.Parts, attrSupp: ds.Suppliers, attrCust: ds.Customers,
	}
}

// tpcdIncrement returns refresh increment number gen: frac of the base
// table in new rows from the same key domains.
func tpcdIncrement(sf float64, seed uint64, frac float64, gen int) []fact {
	ds := tpcd.New(tpcd.Params{SF: sf, Seed: seed})
	return collectFacts(ds.Increment(frac, uint64(gen)))
}

// --- enc: packed-column kernels ----------------------------------------------

func encBitWidth(min, max int64) uint { return enc.BitWidth64(min, max) }

func encPack(dst []byte, vals []int64, base int64, width uint) []byte {
	return enc.AppendPackedColumn(dst, vals, base, width)
}

// encFilter selects, from all n packed values, those within [lo, hi].
func encFilter(src []byte, n int, base int64, width uint, lo, hi int64, sel []uint64) {
	enc.FillSelection(sel, n)
	enc.FilterPackedRange(src, n, base, width, lo, hi, sel)
}

func encSelectionWords(n int) int { return enc.SelectionWords(n) }

func encUnpackSelect(src []byte, n int, base int64, width uint, sel []uint64, out []int64) {
	enc.UnpackColumnSelect(src, n, base, width, sel, out)
}

// --- pager: buffer pool on a scratch file --------------------------------------

type pagePool = pager.Pool

// pagerCreate writes a scratch page file of the given number of pages and
// returns it closed, ready for pagerOpen.
func pagerCreate(path string, pages int) error {
	f, err := pager.Create(path, nil)
	if err != nil {
		return err
	}
	pool := pager.NewPool(f, 64)
	for i := 0; i < pages; i++ {
		fr, err := pool.NewPage()
		if err != nil {
			pool.Close()
			return err
		}
		fr.Data()[0] = byte(i)
		pool.Unpin(fr, true)
	}
	return pool.Close()
}

func pagerOpen(path string, capacity int) (*pagePool, error) {
	f, err := pager.Open(path, nil)
	if err != nil {
		return nil, err
	}
	return pager.NewPool(f, capacity), nil
}

// pagerTouch is one Pool.Fetch + Unpin.
func pagerTouch(p *pagePool, page int) error {
	fr, err := p.Fetch(pager.PageID(page))
	if err != nil {
		return err
	}
	p.Unpin(fr, false)
	return nil
}

// --- rtree: pack, search, merge-pack ---------------------------------------------

type packedTree = rtree.Tree

func packLess(a, b []int64) bool { return rtree.PackLess(a, b) }

func newTreeBuilder(path string, dim int) (*rtree.Builder, *pager.Pool, error) {
	f, err := pager.Create(path, nil)
	if err != nil {
		return nil, nil, err
	}
	pool := pager.NewPool(f, 8192)
	b, err := rtree.NewBuilder(pool, dim, rtree.Options{})
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	if err := b.BeginRun(dim); err != nil {
		pool.Close()
		return nil, nil, err
	}
	return b, pool, nil
}

func finishTree(b *rtree.Builder, pool *pager.Pool) (*packedTree, error) {
	if _, err := b.EndRun(); err != nil {
		pool.Close()
		return nil, err
	}
	t, err := b.Finish()
	if err != nil {
		pool.Close()
	}
	return t, err
}

// rtreePack bulk-loads pack-ordered points into a new single-run tree
// (Builder.Add per point, default leaf format).
func rtreePack(path string, coords, measures [][]int64) (*packedTree, error) {
	b, pool, err := newTreeBuilder(path, len(coords[0]))
	if err != nil {
		return nil, err
	}
	for i := range coords {
		if err := b.Add(coords[i], measures[i]); err != nil {
			pool.Close()
			return nil, err
		}
	}
	return finishTree(b, pool)
}

// rtreeScanAll searches the tree's whole extent and returns the points
// visited and leaf pages read.
func rtreeScanAll(t *packedTree) (points, leafPages int64, err error) {
	lo, hi := make([]int64, t.Dim()), make([]int64, t.Dim())
	for i := range hi {
		hi[i] = math.MaxInt64
	}
	var st rtree.SearchStats
	err = t.SearchWithStats(lo, hi, func([]int64, []int64) error { points++; return nil }, &st)
	return points, st.LeafPagesRead, err
}

// rtreeMergeRun merge-packs old's only run with a pack-ordered delta into a
// new tree at path and returns the new tree's point count.
func rtreeMergeRun(path string, old *packedTree, coords, measures [][]int64) (int64, error) {
	b, pool, err := newTreeBuilder(path, old.Dim())
	if err != nil {
		return 0, err
	}
	delta := &rtree.SlicePoints{Coords: coords, Measures: measures}
	if err := rtree.MergeRun(b, old.Dim(), old.RunIterator(old.Runs()[0]), delta, nil); err != nil {
		pool.Close()
		return 0, err
	}
	t, err := finishTree(b, pool)
	if err != nil {
		return 0, err
	}
	return t.Count(), closeTree(t)
}

// closeTree syncs the tree and closes its page file.
func closeTree(t *packedTree) error {
	if err := t.Close(); err != nil {
		t.Pool().Close()
		return err
	}
	return t.Pool().Close()
}

// --- extsort ------------------------------------------------------------------

// extsortSort sorts four-field tuples by their first three fields with the
// library's default memory limit and returns the number of spilled runs.
func extsortSort(dir string, tuples [][4]int64) (spillRuns int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	s := extsort.NewSorter(dir, enc.TupleSize(4), enc.LessByFields([]int{0, 1, 2}), 0, nil)
	for i := range tuples {
		if err := s.AddTuple(tuples[i][:]); err != nil {
			return 0, err
		}
	}
	it, err := s.Sort()
	if err != nil {
		return 0, err
	}
	defer it.Close()
	// Spilled runs live as files in dir until the iterator is closed.
	if files, err := filepath.Glob(filepath.Join(dir, "*")); err == nil {
		spillRuns = len(files)
	}
	n, err := extsort.Discard(it)
	if err == nil && n != int64(len(tuples)) {
		err = fmt.Errorf("extsort returned %d of %d rows", n, len(tuples))
	}
	return spillRuns, err
}

// --- core: the forest under Warehouse ---------------------------------------------

type forest = core.Forest

// coreOpen opens generation gen of a warehouse directory as a bare forest.
func coreOpen(warehouseDir string, gen int) (*forest, error) {
	return core.Open(filepath.Join(warehouseDir, fmt.Sprintf("gen-%06d", gen)), nil)
}

// --- sqlish ---------------------------------------------------------------------

type sqlStatement = sqlish.Statement

func sqlParse(sql string) (*sqlStatement, error) { return sqlish.Parse(sql) }

// sqlFormat renders rows under st's projection (SUM and COUNT only).
func sqlFormat(st *sqlStatement, rows []cubetree.Row) (int, error) {
	_, out, err := st.Format(rows, lattice.DefaultSchema())
	return len(out), err
}

// --- dist / workload: the shard wire and the coordinator fold ----------------------

// frameEncode writes rows as one shard reply frame: the JSON row payload the
// worker sends, under the 18-byte wire header.
func frameEncode(w io.Writer, generation int, rows []cubetree.Row) error {
	payload, err := json.Marshal(struct {
		Generation int            `json:"generation"`
		Rows       []cubetree.Row `json:"rows"`
	}{generation, rows})
	if err != nil {
		return err
	}
	return dist.EncodeFrame(w, dist.Frame{Type: dist.FrameRows, ID: 1, Payload: payload})
}

// frameDecode reads one reply frame back into rows.
func frameDecode(r *bytes.Reader) ([]cubetree.Row, error) {
	f, err := dist.DecodeFrame(r)
	if err != nil {
		return nil, err
	}
	var p struct {
		Rows []cubetree.Row `json:"rows"`
	}
	err = json.Unmarshal(f.Payload, &p)
	return p.Rows, err
}

// aggregate folds points into groups and returns the canonical rows: what a
// query does with every point its scan visits when no view has exactly its
// node (Aggregator.Add per point, then Rows, which sorts).
func aggregate(groups, measures [][]int64) []cubetree.Row {
	agg := workload.NewAggregator(len(groups[0]))
	for i, g := range groups {
		agg.Add(g, measures[i][0], measures[i][1])
	}
	return agg.Rows()
}

func mergePartials(shards [][]cubetree.Row) []cubetree.Row {
	return workload.MergePartials(lattice.DefaultSchema(), shards)
}
