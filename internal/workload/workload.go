// Package workload defines the paper's slice-query model and the uniform
// random query generator used in Section 3.3, shared by both storage
// configurations so that experiments run the identical batch against each.
//
// A slice query targets one lattice node (a group-by attribute set), fixes
// a subset of those attributes with equality predicates, and aggregates the
// measure over the remaining attributes. For a node with k attributes there
// are 2^k query types; summed over the 3-dimensional TPC-D lattice that is
// the paper's 27 types.
package workload

import (
	"fmt"
	"slices"
	"strings"

	"cubetree/internal/lattice"
)

// Pred is an equality predicate attr = Value.
type Pred struct {
	Attr  lattice.Attr
	Value int64
}

// Range is an inclusive range predicate Lo <= attr <= Hi. The paper's TPC-D
// experiment uses equality only (the attributes are foreign keys), but
// notes that bounded range queries favour the R-tree organization even
// more; Range predicates exercise that path.
type Range struct {
	Attr   lattice.Attr
	Lo, Hi int64
}

// Query is one slice query: group the measure by Node's attributes with the
// given equality and range predicates applied. Predicate attributes must
// belong to Node.
type Query struct {
	// Node is the lattice node, in a fixed attribute order that also orders
	// result rows' Group values.
	Node []lattice.Attr
	// Fixed lists the equality predicates.
	Fixed []Pred
	// Ranges lists the inclusive range predicates.
	Ranges []Range
}

// FixedValue returns the predicate value for attr, if attr is fixed.
func (q Query) FixedValue(attr lattice.Attr) (int64, bool) {
	for _, p := range q.Fixed {
		if p.Attr == attr {
			return p.Value, true
		}
	}
	return 0, false
}

// RangeFor returns the range predicate on attr, if any.
func (q Query) RangeFor(attr lattice.Attr) (Range, bool) {
	for _, r := range q.Ranges {
		if r.Attr == attr {
			return r, true
		}
	}
	return Range{}, false
}

// Validate checks that every predicate attribute belongs to the node, that
// no attribute carries both an equality and a range predicate, and that
// ranges are non-empty.
func (q Query) Validate() error {
	inNode := func(attr lattice.Attr) bool {
		for _, a := range q.Node {
			if a == attr {
				return true
			}
		}
		return false
	}
	for _, p := range q.Fixed {
		if !inNode(p.Attr) {
			return fmt.Errorf("workload: predicate on %q outside node %v", p.Attr, q.Node)
		}
	}
	for _, r := range q.Ranges {
		if !inNode(r.Attr) {
			return fmt.Errorf("workload: range on %q outside node %v", r.Attr, q.Node)
		}
		if r.Lo > r.Hi {
			return fmt.Errorf("workload: empty range on %q [%d,%d]", r.Attr, r.Lo, r.Hi)
		}
		if _, dup := q.FixedValue(r.Attr); dup {
			return fmt.Errorf("workload: %q has both equality and range predicates", r.Attr)
		}
	}
	return nil
}

// String renders the query in the paper's style, e.g.
// "Q{partkey,custkey | custkey=42}".
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("Q{")
	for i, a := range q.Node {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(a))
	}
	if len(q.Fixed) > 0 || len(q.Ranges) > 0 {
		b.WriteString(" | ")
		for i, p := range q.Fixed {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%d", p.Attr, p.Value)
		}
		for i, r := range q.Ranges {
			if i > 0 || len(q.Fixed) > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s in [%d,%d]", r.Attr, r.Lo, r.Hi)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Row is one result row: the node attributes' values (fixed attributes
// carry their predicate value) plus the aggregated measures. Sum and Count
// are always present; Extra carries any additional measures (MIN, MAX) in
// the engine's schema order.
//
// The rows of one result share memory: every Group is a window of one
// backing array and every Extra of another (MergePartials results share
// their inputs' Group arrays instead; rows decoded off the shard wire by
// dist.DecodeRowSet are laid out the same way). The windows are cap-limited, so
// appending to a row's Group or Extra copies rather than spilling into the
// next row, and nothing else holds the arrays once the result is returned;
// writing to an element in place is visible only through that row.
type Row struct {
	Group []int64
	Sum   int64
	Count int64
	Extra []int64
}

// Avg returns the average measure of the row.
func (r Row) Avg() float64 {
	if r.Count == 0 {
		return 0
	}
	return float64(r.Sum) / float64(r.Count)
}

// SortRows orders rows lexicographically by Group, the canonical result
// order used to compare engines.
func SortRows(rows []Row) {
	slices.SortFunc(rows, func(a, b Row) int {
		return slices.Compare(a.Group, b.Group)
	})
}

// EqualRows reports whether two sorted result sets are identical.
func EqualRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sum != b[i].Sum || a[i].Count != b[i].Count ||
			len(a[i].Group) != len(b[i].Group) || len(a[i].Extra) != len(b[i].Extra) {
			return false
		}
		for j := range a[i].Group {
			if a[i].Group[j] != b[i].Group[j] {
				return false
			}
		}
		for j := range a[i].Extra {
			if a[i].Extra[j] != b[i].Extra[j] {
				return false
			}
		}
	}
	return true
}

// Generator produces uniform random slice queries, mirroring the paper's
// random query generator: for a node it picks one of the node's query types
// with equal probability — excluding, as the paper does, the type with no
// selection predicate, whose huge output would dilute retrieval cost — and
// draws predicate values uniformly from the attribute domains.
type Generator struct {
	domains map[lattice.Attr]int64
	state   uint64
}

// NewGenerator creates a generator with the given attribute domains
// (maximum key value per attribute; keys are 1-based).
func NewGenerator(seed uint64, domains map[lattice.Attr]int64) *Generator {
	return &Generator{domains: domains, state: seed ^ 0x428a2f98d728ae22}
}

func (g *Generator) next() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ForNode generates one random query against node. For the scalar "none"
// node the only type is the super-aggregate lookup.
func (g *Generator) ForNode(node []lattice.Attr) Query {
	q := Query{Node: append([]lattice.Attr(nil), node...)}
	k := len(node)
	if k == 0 {
		return q
	}
	// Uniform non-empty subset of predicates.
	mask := g.next()%(1<<uint(k)-1) + 1
	for i, a := range node {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		dom := g.domains[a]
		if dom < 1 {
			dom = 1
		}
		q.Fixed = append(q.Fixed, Pred{Attr: a, Value: int64(g.next()%uint64(dom)) + 1})
	}
	return q
}

// ForNodeRanges generates a random slice query whose predicates are ranges
// spanning roughly width (0..1] of each chosen attribute's domain — the
// bounded range workload the paper predicts favours Cubetrees even more
// than equality slices.
func (g *Generator) ForNodeRanges(node []lattice.Attr, width float64) Query {
	q := Query{Node: append([]lattice.Attr(nil), node...)}
	k := len(node)
	if k == 0 {
		return q
	}
	if width <= 0 || width > 1 {
		width = 0.1
	}
	mask := g.next()%(1<<uint(k)-1) + 1
	for i, a := range node {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		dom := g.domains[a]
		if dom < 1 {
			dom = 1
		}
		w := int64(float64(dom) * width)
		if w < 1 {
			w = 1
		}
		lo := int64(g.next()%uint64(dom)) + 1
		hi := lo + w - 1
		if hi > dom {
			hi = dom
		}
		q.Ranges = append(q.Ranges, Range{Attr: a, Lo: lo, Hi: hi})
	}
	return q
}

// Batch generates n queries against node.
func (g *Generator) Batch(node []lattice.Attr, n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.ForNode(node)
	}
	return out
}

// QueryTypes enumerates every slice query type of a node as predicate
// attribute subsets (including the empty subset). Used by the greedy view
// selector's cost model.
func QueryTypes(node []lattice.Attr) [][]lattice.Attr {
	k := len(node)
	var out [][]lattice.Attr
	for mask := 0; mask < 1<<uint(k); mask++ {
		var fixed []lattice.Attr
		for i := 0; i < k; i++ {
			if mask&(1<<uint(i)) != 0 {
				fixed = append(fixed, node[i])
			}
		}
		out = append(out, fixed)
	}
	return out
}
