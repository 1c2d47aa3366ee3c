package workload

import (
	"slices"

	"cubetree/internal/lattice"
)

// MergePartials folds per-shard partial aggregate rows into one canonical
// result set. Each shard contributes the rows it computed over its own
// slice of the fact stream; because every measure in a lattice.Schema is
// distributive (SUM and COUNT add, MIN and MAX take extremes), folding the
// shards' partials componentwise per group is exactly equivalent to
// aggregating the union of the underlying facts — the property that makes
// scatter-gather over a hash-partitioned forest return results identical
// to a single-process warehouse.
//
// Rows must all belong to the same query: same group width and measures in
// schema order (Sum, Count, then Extra). Groups missing from a shard simply
// contribute nothing. The result is in canonical sorted order (SortRows).
//
// Every engine returns its partial in canonical order, so this is a
// streaming k-way merge: the smallest head is appended, or folded into the
// last output row when its group is the same. A head smaller than the last
// output row means some shard was not sorted; the shards are then folded
// through an Aggregator instead, so the answer never depends on a peer's
// ordering. The result shares the inputs' Group slices, and a lone
// non-empty sorted shard is returned as it stands.
func MergePartials(schema lattice.Schema, shards [][]Row) []Row {
	total, nonEmpty, lone := 0, 0, 0
	for k, rows := range shards {
		total += len(rows)
		if len(rows) > 0 {
			nonEmpty++
			lone = k
		}
	}
	if nonEmpty == 1 && strictlyAscending(shards[lone]) {
		return shards[lone]
	}
	m := schema.Len()
	out := make([]Row, 0, total)
	extras := make([]int64, 0, total*(m-2))
	heads := make([]int, len(shards))
	measures := make([]int64, m)
	for {
		best := -1
		for k, rows := range shards {
			if heads[k] < len(rows) && (best < 0 ||
				slices.Compare(rows[heads[k]].Group, shards[best][heads[best]].Group) < 0) {
				best = k
			}
		}
		if best < 0 {
			return out
		}
		r := &shards[best][heads[best]]
		heads[best]++
		measures[0], measures[1] = r.Sum, r.Count
		copy(measures[2:], r.Extra)
		order := 1
		if len(out) > 0 {
			order = slices.Compare(r.Group, out[len(out)-1].Group)
		}
		switch {
		case order > 0:
			row := Row{Group: slices.Clip(r.Group), Sum: r.Sum, Count: r.Count}
			if m > 2 {
				extras = append(extras, measures[2:]...)
				row.Extra = slices.Clip(extras[len(extras)-(m-2):])
			}
			out = append(out, row)
		case order == 0:
			last := &out[len(out)-1]
			last.Sum += r.Sum
			last.Count += r.Count
			schema[2:].Fold(last.Extra, measures[2:])
		default:
			return foldPartials(schema, shards)
		}
	}
}

// strictlyAscending reports whether rows are in canonical order with no
// group repeated, i.e. already the answer MergePartials would build.
func strictlyAscending(rows []Row) bool {
	for i := 1; i < len(rows); i++ {
		if slices.Compare(rows[i-1].Group, rows[i].Group) >= 0 {
			return false
		}
	}
	return true
}

// foldPartials is MergePartials for shards in any order.
func foldPartials(schema lattice.Schema, shards [][]Row) []Row {
	var agg *Aggregator
	measures := make([]int64, schema.Len())
	for _, rows := range shards {
		for i := range rows {
			r := &rows[i]
			if agg == nil {
				agg = NewSchemaAggregator(len(r.Group), schema)
			}
			measures[0], measures[1] = r.Sum, r.Count
			copy(measures[2:], r.Extra)
			agg.AddMeasures(r.Group, measures)
		}
	}
	return agg.Rows()
}
