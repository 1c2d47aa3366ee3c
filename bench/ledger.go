package main

// ledger.go: the layer ledger. Each entry times one layer's public
// functions from outside, on the run's own data, a fixed amount of work
// repeated a few times with the median reported. It is the same for every
// workload, so any traced run re-measures it.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cubetree"
)

// leafPoints is the number of points the ledger packs per column, about
// what one 8 KiB v2 leaf of the top view holds.
const leafPoints = 512

// medianNS runs fn reps times and returns the median wall time per unit.
func medianNS(reps int, units float64, fn func() error) (float64, error) {
	var per []float64
	for k := 0; k < reps; k++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start))/units)
	}
	return medianFloat(per), nil
}

// topPoints aggregates facts into the top view's points, in pack order.
func topPoints(facts []fact) (coords, measures [][]int64) {
	type key [3]int64
	agg := map[key]*[2]int64{}
	for _, f := range facts {
		k := key{f.part, f.supp, f.cust}
		m := agg[k]
		if m == nil {
			m = &[2]int64{}
			agg[k] = m
		}
		m[0] += f.qty
		m[1]++
	}
	for k := range agg {
		coords = append(coords, []int64{k[0], k[1], k[2]})
	}
	slices.SortFunc(coords, func(a, b []int64) int {
		if packLess(a, b) {
			return -1
		}
		if packLess(b, a) {
			return 1
		}
		return 0
	})
	for _, c := range coords {
		measures = append(measures, agg[key{c[0], c[1], c[2]}][:])
	}
	return coords, measures
}

// ledger is one pass over the layers, writing into the run's metric map.
type ledger struct {
	dir              string
	in               *inputs
	sc               scale
	m                map[string]float64
	coords, measures [][]int64        // the top view's points, in pack order
	results          [][]cubetree.Row // the slice list's answers, from core to wire
}

func runLedger(dir string, in *inputs, sc scale, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := &ledger{dir: dir, in: in, sc: sc, m: m}
	l.coords, l.measures = topPoints(in.facts)
	for _, part := range []func() error{l.enc, l.pager, l.rtree, l.extsort, l.core, l.wire} {
		if err := part(); err != nil {
			return err
		}
	}
	return nil
}

// enc times the packed-column kernels on leaf-sized columns of the
// top view at the bit widths the data really has.
func (l *ledger) enc() error {
	coords, sc, m := l.coords, l.sc, l.m
	type column struct {
		vals   []int64
		base   int64
		width  uint
		packed []byte
		lo, hi int64 // a predicate keeping about a quarter of the value range
	}
	var cols []column
	for at := 0; at+leafPoints <= len(coords) && len(cols) < 3*256; at += leafPoints {
		for dim := 0; dim < 3; dim++ {
			c := column{vals: make([]int64, leafPoints)}
			for i := range c.vals {
				c.vals[i] = coords[at+i][dim]
			}
			lo, hi := slices.Min(c.vals), slices.Max(c.vals)
			c.base, c.width = lo, encBitWidth(lo, hi)
			c.packed = encPack(nil, c.vals, c.base, c.width)
			c.lo, c.hi = lo+(hi-lo)/4, lo+(hi-lo)/2
			cols = append(cols, c)
		}
	}
	points := float64(len(cols) * leafPoints)
	var packedBytes int
	for _, c := range cols {
		packedBytes += len(c.packed)
	}
	// Per point: its share of three packed coordinate columns plus SUM and
	// COUNT stored raw.
	m["enc.bytes_per_point"] = float64(packedBytes)/(points/3) + 16

	buf := make([]byte, 0, leafPoints*8)
	sel := make([]uint64, encSelectionWords(leafPoints))
	out := make([]int64, leafPoints)
	const passes = 20
	var err error
	if m["enc.pack_ns_per_point"], err = medianNS(sc.ledgerReps, points*passes, func() error {
		for p := 0; p < passes; p++ {
			for i := range cols {
				buf = encPack(buf[:0], cols[i].vals, cols[i].base, cols[i].width)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["enc.filter_ns_per_point"], err = medianNS(sc.ledgerReps, points*passes, func() error {
		for p := 0; p < passes; p++ {
			for i := range cols {
				c := &cols[i]
				encFilter(c.packed, leafPoints, c.base, c.width, c.lo, c.hi, sel)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["enc.unpack_select_ns_per_point"], err = medianNS(sc.ledgerReps, points*passes, func() error {
		for p := 0; p < passes; p++ {
			for i := range cols {
				c := &cols[i]
				encFilter(c.packed, leafPoints, c.base, c.width, c.lo, c.hi, sel)
				encUnpackSelect(c.packed, leafPoints, c.base, c.width, sel, out)
			}
		}
		return nil
	})
	// The select pass filtered first; what is left is the unpack alone.
	m["enc.unpack_select_ns_per_point"] = max(m["enc.unpack_select_ns_per_point"]-m["enc.filter_ns_per_point"], 0)
	return err
}

// pager times Pool.Fetch + Unpin on a scratch file: hits on a pool
// that holds the file, misses on one that holds a thirty-second of it.
func (l *ledger) pager() error {
	dir, sc, m := l.dir, l.sc, l.m
	const pages = 2048
	path := filepath.Join(dir, "scratch.pg")
	if err := pagerCreate(path, pages); err != nil {
		return err
	}
	order := make([]int, pages)
	r := prng{state: 7}
	for i := range order {
		order[i] = r.intn(pages)
	}
	touchAll := func(pool *pagePool) func() error {
		return func() error {
			for _, id := range order {
				if err := pagerTouch(pool, id); err != nil {
					return err
				}
			}
			return nil
		}
	}
	hot, err := pagerOpen(path, pages)
	if err != nil {
		return err
	}
	defer hot.Close()
	for id := 0; id < pages; id++ {
		if err := pagerTouch(hot, id); err != nil {
			return err
		}
	}
	if m["pager.fetch_hit_ns"], err = medianNS(sc.ledgerReps, pages, touchAll(hot)); err != nil {
		return err
	}
	cold, err := pagerOpen(path, pages/32)
	if err != nil {
		return err
	}
	defer cold.Close()
	m["pager.fetch_miss_ns"], err = medianNS(sc.ledgerReps, pages, touchAll(cold))
	// Random page ids repeat now and then; nearly every touch of the small
	// pool is still a read, a checksum and an eviction.
	return err
}

// rtree times the Builder (pack), a search of the whole run on a hot
// pool, and MergeRun with a 10 % delta, all on the top view's points.
func (l *ledger) rtree() error {
	dir, in, sc, coords, measures, m := l.dir, l.in, l.sc, l.coords, l.measures, l.m
	n := float64(len(coords))
	var tree *packedTree
	var err error
	path := filepath.Join(dir, "pack.ct")
	if m["rtree.pack_ns_per_point"], err = medianNS(sc.ledgerReps, n, func() error {
		if tree != nil {
			closeTree(tree)
		}
		tree, err = rtreePack(path, coords, measures)
		return err
	}); err != nil {
		return err
	}
	defer closeTree(tree)
	if _, _, err := rtreeScanAll(tree); err != nil { // fills the pool
		return err
	}
	if m["rtree.search_ns_per_point"], err = medianNS(sc.ledgerReps, n, func() error {
		_, _, err := rtreeScanAll(tree)
		return err
	}); err != nil {
		return err
	}
	dCoords, dMeasures := topPoints(in.increments[0])
	m["rtree.mergerun_ns_per_point"], err = medianNS(sc.ledgerReps, n+float64(len(dCoords)), func() error {
		_, err := rtreeMergeRun(filepath.Join(dir, "merge.ct"), tree, dCoords, dMeasures)
		return err
	})
	return err
}

// extsort times the external sorter on the fact rows themselves.
func (l *ledger) extsort() error {
	dir, in, sc, m := l.dir, l.in, l.sc, l.m
	tuples := make([][4]int64, len(in.facts))
	for i, f := range in.facts {
		tuples[i] = [4]int64{f.part, f.supp, f.cust, f.qty}
	}
	var err error
	m["extsort.sort_ns_per_row"], err = medianNS(sc.ledgerReps, float64(len(tuples)), func() error {
		runs, err := extsortSort(filepath.Join(dir, "sort"), tuples)
		m["extsort.spill_runs"] = float64(runs)
		return err
	})
	return err
}

// core loads the base table once more and times the slice list
// against the bare forest and the warehouse around it: Forest.Execute,
// Forest.Plan, and what Warehouse.Query adds on top. The SQL front end is
// timed on the same list and its answers.
func (l *ledger) core() error {
	dir, in, sc, m := l.dir, l.in, l.sc, l.m
	whDir := filepath.Join(dir, "wh")
	list := sliceList(min(sc.sliceQueries, 2048), in.facts, 1)
	lib, err := setUpLibrary(whDir, &inputs{facts: in.facts, domains: in.domains, list: list}, sc.hotPool, false)
	if err != nil {
		return err
	}
	defer lib.close()
	f, err := coreOpen(whDir, 1)
	if err != nil {
		return err
	}
	defer f.Close()

	// Forest.Execute's median; then Warehouse.Query against it, each query
	// timed through both back to back (the order alternating) so the small
	// difference is a median of paired differences, not a difference of
	// noisy medians.
	results := make([][]cubetree.Row, len(list))
	timed := func(run func(cubetree.Query) ([]cubetree.Row, error), i int) (int64, error) {
		start := time.Now()
		rows, err := run(list[i])
		results[i] = rows
		return int64(time.Since(start)), err
	}
	var execNS, selfNS []int64
	for k := 0; k <= sc.ledgerReps; k++ { // pass 0 fills the pool
		for i := range list {
			first, second := f.Execute, lib.w.Query
			if (i+k)%2 == 1 {
				first, second = second, first
			}
			a, err := timed(first, i)
			if err != nil {
				return err
			}
			b, err := timed(second, i)
			if err != nil {
				return err
			}
			if (i+k)%2 == 1 {
				a, b = b, a
			}
			if k > 0 {
				execNS = append(execNS, a)
				selfNS = append(selfNS, b-a)
			}
		}
	}
	m["core.execute_ns_p50"] = float64(percentile(sortedCopy(execNS), 0.50))
	m["core.warehouse_self_ns"] = float64(percentile(sortedCopy(selfNS), 0.50))

	before := readMem()
	for _, q := range list {
		if _, err := f.Execute(q); err != nil {
			return err
		}
	}
	m["core.allocs_per_query"] = float64(readMem().mallocs-before.mallocs) / float64(len(list))
	if m["core.plan_ns"], err = medianNS(sc.ledgerReps, float64(len(list)), func() error {
		for _, q := range list {
			if _, err := f.Plan(q); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	sql := make([]string, len(list))
	stmts := make([]*sqlStatement, len(list))
	var rows float64
	for i, q := range list {
		sql[i] = renderSQL(q)
		rows += float64(len(results[i]))
	}
	if m["sqlish.parse_ns"], err = medianNS(sc.ledgerReps, float64(len(list)), func() error {
		for i, s := range sql {
			if stmts[i], err = sqlParse(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["sqlish.format_ns_per_row"], err = medianNS(sc.ledgerReps, rows, func() error {
		for i, st := range stmts {
			if _, err := sqlFormat(st, results[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.results = results
	return nil
}

// wire times the shard wire and the coordinator's fold on the slice
// list's real answers: a worker's reply frame encoded and decoded, and
// MergePartials over two partials that both hold every group.
func (l *ledger) wire() error {
	results, sc, m := l.results, l.sc, l.m
	var rows float64
	for _, r := range results {
		rows += float64(len(r))
	}
	frames := make([][]byte, len(results))
	var buf bytes.Buffer
	var err error
	if m["dist.frame_encode_ns_per_row"], err = medianNS(sc.ledgerReps, rows, func() error {
		for i, r := range results {
			buf.Reset()
			if err := frameEncode(&buf, 1, r); err != nil {
				return err
			}
			frames[i] = append(frames[i][:0], buf.Bytes()...)
		}
		return nil
	}); err != nil {
		return err
	}
	var wire float64
	for _, f := range frames {
		wire += float64(len(f))
	}
	m["dist.wire_bytes_per_row"] = ratio(wire, rows)
	if m["dist.frame_decode_ns_per_row"], err = medianNS(sc.ledgerReps, rows, func() error {
		for _, f := range frames {
			if _, err := frameDecode(bytes.NewReader(f)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["workload.merge_partials_ns_per_row"], err = medianNS(sc.ledgerReps, 2*rows, func() error {
		for _, r := range results {
			mergePartials([][]cubetree.Row{r, r})
		}
		return nil
	}); err != nil {
		return err
	}
	// The fold a scan_cold band query performs: about 5 % of the top view's
	// points grouped by two of their three coordinates, nearly every group
	// its own row.
	band := min(len(l.coords), len(l.in.facts)/20)
	groups := make([][]int64, band)
	for i := range groups {
		groups[i] = l.coords[i][1:]
	}
	m["workload.aggregate_ns_per_point"], err = medianNS(sc.ledgerReps, float64(band), func() error {
		aggregate(groups, l.measures[:band])
		return nil
	})
	return err
}
