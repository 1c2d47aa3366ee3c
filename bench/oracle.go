package main

// oracle.go: the correctness oracle. The fact rows, and every increment as
// it is applied, stay in memory; an expected answer is a brute-force fold
// of those rows, sharing no code with the system under test.

import (
	"math"
	"slices"
	"strconv"

	"cubetree"
)

// oracleEvery is the sampling stride: request i of a list is checked when
// i is a multiple of it.
const oracleEvery = 64

type oracle struct {
	facts []fact
	// visible[g] is how many facts generation g+1 holds: the base table,
	// then one more increment per refresh.
	visible []int
}

func newOracle(base []fact, increments [][]fact) *oracle {
	o := &oracle{facts: slices.Clone(base), visible: []int{len(base)}}
	for _, inc := range increments {
		o.facts = append(o.facts, inc...)
		o.visible = append(o.visible, len(o.facts))
	}
	return o
}

var attrIndex = map[cubetree.Attr]int{attrPart: 0, attrSupp: 1, attrCust: 2}

// fold answers q over the facts of the given generation (1 = base table).
func (o *oracle) fold(q cubetree.Query, generation int) []cubetree.Row {
	lo := [3]int64{math.MinInt64, math.MinInt64, math.MinInt64}
	hi := [3]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}
	for _, p := range q.Fixed {
		lo[attrIndex[p.Attr]], hi[attrIndex[p.Attr]] = p.Value, p.Value
	}
	for _, r := range q.Ranges {
		lo[attrIndex[r.Attr]], hi[attrIndex[r.Attr]] = r.Lo, r.Hi
	}
	type acc struct{ sum, count int64 }
	groups := map[[3]int64]*acc{}
	for _, f := range o.facts[:o.visible[generation-1]] {
		v := [3]int64{f.part, f.supp, f.cust}
		if v[0] < lo[0] || v[0] > hi[0] || v[1] < lo[1] || v[1] > hi[1] || v[2] < lo[2] || v[2] > hi[2] {
			continue
		}
		var key [3]int64
		for i, a := range q.Node {
			key[i] = v[attrIndex[a]]
		}
		g := groups[key]
		if g == nil {
			g = &acc{}
			groups[key] = g
		}
		g.sum += f.qty
		g.count++
	}
	rows := make([]cubetree.Row, 0, len(groups))
	for key, g := range groups {
		rows = append(rows, cubetree.Row{Group: slices.Clone(key[:len(q.Node)]), Sum: g.sum, Count: g.count})
	}
	slices.SortFunc(rows, func(a, b cubetree.Row) int { return slices.Compare(a.Group, b.Group) })
	return rows
}

// sameRows reports whether got is exactly the expected answer: the same
// groups in canonical order with the same SUM and COUNT.
func sameRows(got, want []cubetree.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Sum != want[i].Sum || got[i].Count != want[i].Count || !slices.Equal(got[i].Group, want[i].Group) {
			return false
		}
	}
	return true
}

// parseRows turns a daemon's string cells (node attributes, then sum, then
// count, as renderSQL asked for them) back into rows.
func parseRows(cells [][]string, width int) ([]cubetree.Row, bool) {
	rows := make([]cubetree.Row, len(cells))
	for i, rec := range cells {
		if len(rec) != width+2 {
			return nil, false
		}
		vals := make([]int64, len(rec))
		for j, c := range rec {
			v, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				return nil, false
			}
			vals[j] = v
		}
		rows[i] = cubetree.Row{Group: vals[:width], Sum: vals[width], Count: vals[width+1]}
	}
	return rows, true
}
