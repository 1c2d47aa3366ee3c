package dist

import (
	"fmt"
	"slices"

	"cubetree/internal/cube"
	"cubetree/internal/lattice"
	"cubetree/internal/workload"
)

// ShardOf assigns a fact to one of n shards by FNV-1a over its key values
// in a fixed attribute order. Any assignment would produce correct query
// results — the measures are distributive and the coordinator folds partial
// aggregates per group — so the hash is purely a load-balance choice, and
// the initial load and later deltas need not even agree on it. They do
// anyway (both go through this function) so shards stay balanced as
// refreshes accumulate.
func ShardOf(vals []int64, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range vals {
		u := uint64(v)
		for shift := 0; shift < 64; shift += 8 {
			h ^= (u >> shift) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(n))
}

// ViewAttrs returns the attributes views read, sorted: the columns a fact
// must carry, and the ones Partition hashes and ships. Coordinator and worker
// both derive the list from the catalog, so they agree on it.
func ViewAttrs(views []lattice.View) []lattice.Attr {
	var attrs []lattice.Attr
	for _, v := range views {
		attrs = append(attrs, v.Attrs...)
	}
	slices.Sort(attrs)
	return slices.Compact(attrs)
}

// Partition splits a fact stream into n per-shard row sets: each fact becomes
// a row whose Group holds its attrs values in attrs order, Sum its measure and
// Count 1, on the shard ShardOf picked from those values. A shard with no
// facts gets an empty slice. The same split feeds initial loads and refresh
// deltas, keeping both sides of the hash consistent; Facts reads a slice back
// as a fact stream.
func Partition(rows cube.RowIter, attrs []lattice.Attr, n int) ([][]workload.Row, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: partition into %d shards", n)
	}
	if len(attrs) > maxRowSetDim {
		return nil, fmt.Errorf("dist: partition over %d attributes, at most %d", len(attrs), maxRowSetDim)
	}
	out := make([][]workload.Row, n)
	for rows.Next() {
		vals := make([]int64, len(attrs))
		for i, a := range attrs {
			v, err := rows.Value(a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		k := ShardOf(vals, n)
		out[k] = append(out[k], workload.Row{Group: vals, Sum: rows.Measure(), Count: 1})
	}
	if ec, ok := rows.(interface{ Err() error }); ok && ec.Err() != nil {
		return nil, ec.Err()
	}
	return out, nil
}

// Facts streams rows of the shape Partition returns as facts over attrs: a
// worker feeds a decoded delta to BeginUpdate through it, and an in-process
// shard is loaded through it.
func Facts(attrs []lattice.Attr, rows []workload.Row) cube.RowIter {
	return &facts{attrs: attrs, rows: rows}
}

type facts struct {
	attrs []lattice.Attr
	rows  []workload.Row
	i     int
}

func (f *facts) Next() bool { f.i++; return f.i <= len(f.rows) }

func (f *facts) Value(a lattice.Attr) (int64, error) {
	if j := slices.Index(f.attrs, a); j >= 0 {
		return f.rows[f.i-1].Group[j], nil
	}
	return 0, fmt.Errorf("dist: fact has no attribute %q", a)
}

func (f *facts) Measure() int64 { return f.rows[f.i-1].Sum }
