package sqlish

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cubetree/internal/lattice"
	"cubetree/internal/workload"
)

// OutputCol is one projected result column.
type OutputCol struct {
	// Attr is set for plain attribute columns.
	Attr lattice.Attr
	// Agg is set for aggregate columns (with IsAvg for AVG, which is
	// derived from SUM and COUNT).
	Agg   lattice.Agg
	IsAvg bool
	// Label is the column header (the SQL text that produced it).
	Label string
}

// Statement is a parsed SELECT.
type Statement struct {
	// Columns lists the projection in SELECT order.
	Columns []OutputCol
	// Table is the FROM target (informational; the warehouse has exactly
	// one fact space).
	Table string
	// Query is the slice query the statement maps to: GROUP BY attributes
	// plus WHERE/HAVING predicates.
	Query workload.Query
	// Limit caps the result rows when HasLimit is set.
	Limit    int
	HasLimit bool
}

// Parse translates one SELECT statement.
//
// Rules, matching the paper's query model: every plain attribute in the
// SELECT list must appear in GROUP BY (or, with no GROUP BY, the statement
// must be pure aggregates over the whole space); WHERE is a conjunction of
// equality and BETWEEN predicates; predicate attributes are added to the
// query node implicitly when absent from GROUP BY, so "total per part for
// customer 5" can be written either way.
func Parse(input string) (*Statement, error) {
	p := &parser{lex: lexer{input: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("sqlish: trailing input %q", p.tok.text)
	}
	if err := st.Query.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !isKeyword(p.tok, kw) {
		return fmt.Errorf("sqlish: expected %s, got %q", strings.ToUpper(kw), p.tok.text)
	}
	return p.advance()
}

func (p *parser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	st := &Statement{}
	for {
		col, err := p.parseColumn()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("sqlish: expected table name, got %q", p.tok.text)
	}
	st.Table = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}

	if isKeyword(p.tok, "where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.parseWhere(st); err != nil {
			return nil, err
		}
	}
	if isKeyword(p.tok, "group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			if p.tok.kind != tokIdent {
				return nil, fmt.Errorf("sqlish: expected GROUP BY attribute, got %q", p.tok.text)
			}
			st.Query.Node = append(st.Query.Node, lattice.Attr(strings.ToLower(p.tok.text)))
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	// HAVING with predicates on grouping attributes is equivalent to WHERE
	// in the slice-query model; the paper's own Section 3.3 example writes
	// "group by partkey,suppkey having partkey = P". Accept it as such.
	if isKeyword(p.tok, "having") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.parseWhere(st); err != nil {
			return nil, err
		}
	}
	if isKeyword(p.tok, "limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("sqlish: negative LIMIT %d", n)
		}
		st.Limit = int(n)
		st.HasLimit = true
	}
	return st, p.finish(st)
}

// parseColumn parses one SELECT-list item: attr or AGG(measure|*).
func (p *parser) parseColumn() (OutputCol, error) {
	if p.tok.kind != tokIdent {
		return OutputCol{}, fmt.Errorf("sqlish: expected column, got %q", p.tok.text)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return OutputCol{}, err
	}
	if p.tok.kind != tokLParen {
		return OutputCol{Attr: lattice.Attr(strings.ToLower(name)), Label: strings.ToLower(name)}, nil
	}
	// Aggregate call.
	if err := p.advance(); err != nil {
		return OutputCol{}, err
	}
	var arg string
	switch p.tok.kind {
	case tokStar:
		arg = "*"
	case tokIdent:
		arg = strings.ToLower(p.tok.text)
	default:
		return OutputCol{}, fmt.Errorf("sqlish: expected aggregate argument, got %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return OutputCol{}, err
	}
	if p.tok.kind != tokRParen {
		return OutputCol{}, fmt.Errorf("sqlish: expected ')', got %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return OutputCol{}, err
	}
	label := strings.ToLower(name) + "(" + arg + ")"
	switch strings.ToLower(name) {
	case "sum":
		return OutputCol{Agg: lattice.AggSum, Label: label}, nil
	case "count":
		return OutputCol{Agg: lattice.AggCount, Label: label}, nil
	case "avg":
		return OutputCol{IsAvg: true, Label: label}, nil
	case "min":
		return OutputCol{Agg: lattice.AggMin, Label: label}, nil
	case "max":
		return OutputCol{Agg: lattice.AggMax, Label: label}, nil
	default:
		return OutputCol{}, fmt.Errorf("sqlish: unknown aggregate %q", name)
	}
}

// parseWhere parses a conjunction of "attr = N" and "attr BETWEEN a AND b".
func (p *parser) parseWhere(st *Statement) error {
	for {
		if p.tok.kind != tokIdent {
			return fmt.Errorf("sqlish: expected predicate attribute, got %q", p.tok.text)
		}
		attr := lattice.Attr(strings.ToLower(p.tok.text))
		if err := p.advance(); err != nil {
			return err
		}
		switch {
		case p.tok.kind == tokEq:
			if err := p.advance(); err != nil {
				return err
			}
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			st.Query.Fixed = append(st.Query.Fixed, workload.Pred{Attr: attr, Value: v})
		case isKeyword(p.tok, "between"):
			if err := p.advance(); err != nil {
				return err
			}
			lo, err := p.parseNumber()
			if err != nil {
				return err
			}
			if err := p.expectKeyword("and"); err != nil {
				return err
			}
			hi, err := p.parseNumber()
			if err != nil {
				return err
			}
			st.Query.Ranges = append(st.Query.Ranges, workload.Range{Attr: attr, Lo: lo, Hi: hi})
		default:
			return fmt.Errorf("sqlish: expected '=' or BETWEEN after %q, got %q", attr, p.tok.text)
		}
		if !isKeyword(p.tok, "and") {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *parser) parseNumber() (int64, error) {
	if p.tok.kind != tokNumber {
		return 0, fmt.Errorf("sqlish: expected number, got %q", p.tok.text)
	}
	v, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlish: bad number %q: %v", p.tok.text, err)
	}
	return v, p.advance()
}

// finish validates the projection against the group-by node and widens the
// node with predicate attributes not already present (standard SQL allows
// WHERE on non-grouped attributes; the slice-query model folds them into
// the node, where they surface as the constant predicate value).
func (p *parser) finish(st *Statement) error {
	hasAgg := false
	for _, c := range st.Columns {
		if c.Attr == "" {
			hasAgg = true
		} else if !slices.Contains(st.Query.Node, c.Attr) {
			return fmt.Errorf("sqlish: column %q must appear in GROUP BY", c.Attr)
		}
	}
	for _, pr := range st.Query.Fixed {
		if !slices.Contains(st.Query.Node, pr.Attr) {
			st.Query.Node = append(st.Query.Node, pr.Attr)
		}
	}
	for _, r := range st.Query.Ranges {
		if !slices.Contains(st.Query.Node, r.Attr) {
			st.Query.Node = append(st.Query.Node, r.Attr)
		}
	}
	if len(st.Columns) == 0 {
		return fmt.Errorf("sqlish: empty select list")
	}
	if !hasAgg {
		return fmt.Errorf("sqlish: select list needs at least one aggregate (sum/count/avg/min/max)")
	}
	return nil
}

// Projection is a statement's SELECT list resolved against its result node
// and a measure schema: where each column's value sits in a workload.Row.
// Format and the HTTP response writer both render cells through it.
type Projection struct {
	cols  []colSource
	limit int // -1 without LIMIT
}

// colSource is one column's kind and its Row.Group or Row.Extra index.
type colSource struct{ kind, pos int }

const (
	colGroup = iota
	colSum
	colCount
	colAvg
	colExtra
)

// Resolve resolves the statement's projection against schema, the engine's
// measure schema, so a MIN or MAX the schema does not store fails the
// statement before any scan.
func (st *Statement) Resolve(schema lattice.Schema) (Projection, error) {
	p := Projection{cols: make([]colSource, len(st.Columns)), limit: -1}
	if st.HasLimit {
		p.limit = st.Limit
	}
	for i, c := range st.Columns {
		switch {
		case c.Attr != "":
			pos := slices.Index(st.Query.Node, c.Attr)
			if pos < 0 {
				return Projection{}, fmt.Errorf("sqlish: column %q not in result", c.Attr)
			}
			p.cols[i] = colSource{colGroup, pos}
		case c.IsAvg:
			p.cols[i] = colSource{kind: colAvg}
		case c.Agg == lattice.AggSum:
			p.cols[i] = colSource{kind: colSum}
		case c.Agg == lattice.AggCount:
			p.cols[i] = colSource{kind: colCount}
		default:
			// Extras are the schema's measures after SUM and COUNT.
			pos := slices.Index(schema, c.Agg) - 2
			if pos < 0 {
				return Projection{}, fmt.Errorf("sqlish: %s not stored in this warehouse (add it via ExtraMeasures)", c.Label)
			}
			p.cols[i] = colSource{colExtra, pos}
		}
	}
	return p, nil
}

// Rows returns the rows the statement renders: rows cut to its LIMIT.
func (p Projection) Rows(rows []workload.Row) []workload.Row {
	if p.limit >= 0 && len(rows) > p.limit {
		return rows[:p.limit]
	}
	return rows
}

// AppendCell appends column i of r to dst in its text form: a decimal
// integer, or for AVG a decimal with two places. The text never needs JSON
// escaping.
func (p Projection) AppendCell(dst []byte, r workload.Row, i int) []byte {
	c := p.cols[i]
	switch c.kind {
	case colGroup:
		return strconv.AppendInt(dst, r.Group[c.pos], 10)
	case colSum:
		return strconv.AppendInt(dst, r.Sum, 10)
	case colCount:
		return strconv.AppendInt(dst, r.Count, 10)
	case colAvg:
		return strconv.AppendFloat(dst, r.Avg(), 'f', 2, 64)
	default:
		return strconv.AppendInt(dst, r.Extra[c.pos], 10)
	}
}

// Format renders result rows under the statement's projection. schema is
// the engine's measure schema (for locating MIN/MAX extras).
func (st *Statement) Format(rows []workload.Row, schema lattice.Schema) ([]string, [][]string, error) {
	p, err := st.Resolve(schema)
	if err != nil {
		return nil, nil, err
	}
	headers := make([]string, len(st.Columns))
	for i, c := range st.Columns {
		headers[i] = c.Label
	}
	var out [][]string
	var cell []byte
	for _, r := range p.Rows(rows) {
		cells := make([]string, len(st.Columns))
		for i := range cells {
			cell = p.AppendCell(cell[:0], r, i)
			cells[i] = string(cell)
		}
		out = append(out, cells)
	}
	return headers, out, nil
}
