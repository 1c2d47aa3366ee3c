package main

// inputs.go: the benchmark owns its inputs. The fact stream comes from the
// tpcd generator (surface.go); everything derived from it — the PRNG, the
// query-type enumeration, both request lists and the SQL text — is built
// here, so a change to workload.Generator, experiment.Nodes or
// server.SQLFor cannot silently change what the benchmark measures. An
// input digest per workload proves two runs saw the same bytes.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"
	"strings"

	"cubetree"
)

const (
	attrPart cubetree.Attr = "partkey"
	attrSupp cubetree.Attr = "suppkey"
	attrCust cubetree.Attr = "custkey"

	measureName = "quantity"

	// incrementFrac is the paper's refresh increment: 10 % of the base table.
	incrementFrac = 0.1
)

// fact is one fact-table row.
type fact struct{ part, supp, cust, qty int64 }

func (f fact) value(a cubetree.Attr) int64 {
	switch a {
	case attrPart:
		return f.part
	case attrSupp:
		return f.supp
	default:
		return f.cust
	}
}

// factIter streams facts into Materialize and Update.
type factIter struct {
	rows []fact
	i    int
}

func (it *factIter) Next() bool { it.i++; return it.i <= len(it.rows) }

func (it *factIter) Value(a cubetree.Attr) (int64, error) {
	switch a {
	case attrPart, attrSupp, attrCust:
		return it.rows[it.i-1].value(a), nil
	}
	return 0, fmt.Errorf("bench: unknown attribute %q", a)
}

func (it *factIter) Measure() int64 { return it.rows[it.i-1].qty }

// paperViews is the paper's greedy selection for the TPC-D lattice, and
// topReplicas the two extra sort orders of the top view: together the 8
// placements in 3 trees that ctload builds.
func paperViews() []cubetree.View {
	return []cubetree.View{
		cubetree.NewView("", attrPart, attrSupp, attrCust),
		cubetree.NewView("", attrPart, attrSupp),
		cubetree.NewView("", attrCust),
		cubetree.NewView("", attrSupp),
		cubetree.NewView("", attrPart),
		cubetree.NewView(""),
	}
}

var topReplicas = [][]cubetree.Attr{
	{attrSupp, attrCust, attrPart},
	{attrCust, attrPart, attrSupp},
}

// sliceNodes are the seven non-empty lattice nodes, in the order of the
// paper's Figure 12 axis.
var sliceNodes = [][]cubetree.Attr{
	{attrPart, attrSupp, attrCust},
	{attrPart, attrSupp},
	{attrPart, attrCust},
	{attrSupp, attrCust},
	{attrPart},
	{attrSupp},
	{attrCust},
}

// prng is splitmix64.
type prng struct{ state uint64 }

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// sliceList is the paper's Figure 13 mix: the seven nodes round-robin, each
// query fixing a uniformly chosen non-empty subset of its node's attributes
// (the slice types of the lattice that carry a predicate) by equality. The
// predicate values are those of a uniformly drawn fact row, so every query
// has a non-empty answer for the oracle to check.
func sliceList(n int, facts []fact, seed uint64) []cubetree.Query {
	r := prng{state: seed ^ 0x51ce11577}
	list := make([]cubetree.Query, n)
	for i := range list {
		node := sliceNodes[i%len(sliceNodes)]
		mask := r.intn(1<<len(node)-1) + 1
		f := facts[r.intn(len(facts))]
		q := cubetree.Query{Node: node}
		for j, a := range node {
			if mask&(1<<j) != 0 {
				q.Fixed = append(q.Fixed, cubetree.Pred{Attr: a, Value: f.value(a)})
			}
		}
		list[i] = q
	}
	return list
}

// scanList is the roll-up/range mix of scan_cold, five shapes round-robin.
// Three aggregate a 5 %-wide band of the top view or one of its replicas
// (about 5 % of the fact table in points each); two are the small
// random-page probes of a cold pool.
func scanList(n int, facts []fact, domains map[cubetree.Attr]int64, seed uint64) []cubetree.Query {
	r := prng{state: seed ^ 0x5ca9c01d}
	band := func(a cubetree.Attr, share float64) rangePred {
		dom := domains[a]
		width := int64(float64(dom) * share)
		if width < 1 {
			width = 1
		}
		lo := int64(r.intn(int(dom-width+1))) + 1
		return rangePred{Attr: a, Lo: lo, Hi: lo + width - 1}
	}
	list := make([]cubetree.Query, n)
	for i := range list {
		f := facts[r.intn(len(facts))]
		var q cubetree.Query
		switch i % 5 {
		case 0: // no dedicated view: aggregates a band of the partkey-major replica
			q = cubetree.Query{Node: []cubetree.Attr{attrPart, attrCust}, Ranges: []rangePred{band(attrPart, 0.05)}}
		case 1: // suppkey roll-up, equality alternating with a 40 %-wide range
			q = cubetree.Query{Node: []cubetree.Attr{attrSupp}}
			if i%10 == 1 {
				q.Fixed = []cubetree.Pred{{Attr: attrSupp, Value: f.supp}}
			} else {
				q.Ranges = []rangePred{band(attrSupp, 0.40)}
			}
		case 2: // no dedicated view: aggregates a custkey band of the top view
			q = cubetree.Query{Node: []cubetree.Attr{attrSupp, attrCust}, Ranges: []rangePred{band(attrCust, 0.05)}}
		case 3: // custkey slice: one point on a random page
			q = cubetree.Query{Node: []cubetree.Attr{attrCust}, Fixed: []cubetree.Pred{{Attr: attrCust, Value: f.cust}}}
		case 4: // top-view rows of a suppkey band, emitted unaggregated
			q = cubetree.Query{Node: []cubetree.Attr{attrPart, attrSupp, attrCust}, Ranges: []rangePred{band(attrSupp, 0.05)}}
		}
		list[i] = q
	}
	return list
}

// renderSQL writes q in the daemon's SQL dialect: the node attributes, then
// sum and count of the measure.
func renderSQL(q cubetree.Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for _, a := range q.Node {
		b.WriteString(string(a))
		b.WriteString(", ")
	}
	b.WriteString("sum(" + measureName + "), count(*) FROM sales")
	sep := " WHERE "
	for _, p := range q.Fixed {
		b.WriteString(sep + string(p.Attr) + " = " + strconv.FormatInt(p.Value, 10))
		sep = " AND "
	}
	for _, rg := range q.Ranges {
		b.WriteString(sep + string(rg.Attr) + " BETWEEN " + strconv.FormatInt(rg.Lo, 10) + " AND " + strconv.FormatInt(rg.Hi, 10))
		sep = " AND "
	}
	sep = " GROUP BY "
	for _, a := range q.Node {
		b.WriteString(sep + string(a))
		sep = ", "
	}
	return b.String()
}

// renderCSV writes facts as the CSV document /admin/refresh accepts.
func renderCSV(rows []fact) []byte {
	out := make([]byte, 0, 24*len(rows)+40)
	out = append(out, "partkey,suppkey,custkey,"+measureName+"\n"...)
	for _, f := range rows {
		for _, v := range [...]int64{f.part, f.supp, f.cust} {
			out = strconv.AppendInt(out, v, 10)
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, f.qty, 10)
		out = append(out, '\n')
	}
	return out
}

// inputs is everything one workload run consumes, all of it a function of
// (scale, seed, workload).
type inputs struct {
	facts      []fact
	domains    map[cubetree.Attr]int64
	increments [][]fact
	list       []cubetree.Query
	sql        []string // the list in the benchmark's own SQL rendering
	// plain and profiled are the /query request bodies of the list, built
	// once here rather than in every timed set-up; nil in process.
	plain, profiled [][]byte
	digest          string
}

func buildInputs(sc scale, sp spec, seed uint64, increments int) *inputs {
	in := &inputs{}
	in.facts, in.domains = tpcdFacts(sc.sf, seed)
	for g := 1; g <= increments; g++ {
		in.increments = append(in.increments, tpcdIncrement(sc.sf, seed, incrementFrac, g))
	}
	if sp.scan {
		in.list = scanList(sc.scanQueries, in.facts, in.domains, seed)
	} else {
		in.list = sliceList(sc.sliceQueries, in.facts, seed)
	}
	in.sql = make([]string, len(in.list))
	for i, q := range in.list {
		in.sql[i] = renderSQL(q)
	}
	if sp.front != frontLibrary {
		for _, sql := range in.sql {
			p, _ := json.Marshal(map[string]any{"sql": sql})
			in.plain = append(in.plain, p)
			p, _ = json.Marshal(map[string]any{"sql": sql, "profile": true})
			in.profiled = append(in.profiled, p)
		}
	}
	in.digest = in.computeDigest()
	return in
}

func hashFacts(h hash.Hash, rows []fact) {
	var buf [32]byte
	for _, f := range rows {
		binary.LittleEndian.PutUint64(buf[0:], uint64(f.part))
		binary.LittleEndian.PutUint64(buf[8:], uint64(f.supp))
		binary.LittleEndian.PutUint64(buf[16:], uint64(f.cust))
		binary.LittleEndian.PutUint64(buf[24:], uint64(f.qty))
		h.Write(buf[:])
	}
}

// computeDigest hashes the fact stream, every increment and the request
// list (as the benchmark's own SQL rendering of it).
func (in *inputs) computeDigest() string {
	h := sha256.New()
	hashFacts(h, in.facts)
	for _, inc := range in.increments {
		hashFacts(h, inc)
	}
	for _, s := range in.sql {
		fmt.Fprintln(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
