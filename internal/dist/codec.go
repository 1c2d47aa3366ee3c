package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"cubetree/internal/enc"
	"cubetree/internal/lattice"
	"cubetree/internal/workload"
)

// The binary payloads of the four query-path frames and of refreshPrepare.
// Every integer is a varint (unsigned counts and lengths, zig-zag for values
// that may be negative), every string a length-prefixed byte run, and every
// flags byte must have its undefined bits zero. docs/DISTRIBUTED.md has the
// byte-level tables.
//
//	query          := flags(1: profile wanted) traceID query
//	queryBatch     := flags(0) traceID parallelism nqueries query*
//	query          := nnode name* nfixed (name value)* nranges (name lo hi)*
//	rows           := generation flags(1: profile follows) rowset [len profileJSON]
//	rowsBatch      := generation nresults rowset*
//	refreshPrepare := nattrs name* rowset
//
// Decoders treat their input as hostile: a count is checked against the bytes
// left before anything is allocated for it, so decoding N bytes allocates at
// most a fixed multiple of N, and bytes left over after the last field are an
// error — all reported as *PayloadError.

// PayloadError reports a binary payload its decoder refused.
type PayloadError struct {
	What   string // "row set", "query", ...
	Reason string
}

func (e *PayloadError) Error() string { return "dist: bad " + e.What + " payload: " + e.Reason }

// maxRowSetDim bounds a row set's group width and its extra-measure count.
const maxRowSetDim = 64

// flagProfile is bit 0 of a query's flags (a profile is wanted) and of a rows
// reply's (a profile follows the row set); every other bit is reserved.
const flagProfile = 1

// AppendRowSet appends rows to dst as one row-set block and returns the
// extended slice: the row count, then — unless it is zero — the group width,
// the extra-measure count and width+2+nextra columns (the group columns, Sum,
// Count, the extras), each {base, bit width, packed deltas} in the
// frame-of-reference codec of the leaves (enc.AppendPackedColumn). A
// column of a block of more than one row is at least one bit wide, constant
// or not, which is what lets a decoder bound the rows it allocates by the
// bytes it was handed. Rows must share their Group and Extra lengths, neither
// above 64, as every engine result does; anything else is a caller bug and
// panics.
func AppendRowSet(dst []byte, rows []workload.Row) []byte {
	var col []int64
	return appendRowSet(dst, rows, &col)
}

// scratchColumn returns n words of *col, growing it when it is too small. col
// is the one column of scratch the row-set codec gathers into and unpacks
// through; a connection owns one, so steady traffic allocates nothing for it.
func scratchColumn(col *[]int64, n int) []int64 {
	if cap(*col) < n {
		*col = make([]int64, n)
	}
	return (*col)[:n]
}

// appendRowSet is AppendRowSet gathering each column in *col.
func appendRowSet(dst []byte, rows []workload.Row, scratch *[]int64) []byte {
	n := len(rows)
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	width, nextra := len(rows[0].Group), len(rows[0].Extra)
	if width > maxRowSetDim || nextra > maxRowSetDim {
		panic(fmt.Sprintf("dist: row set of width %d with %d extra measures", width, nextra))
	}
	for i := range rows {
		if len(rows[i].Group) != width || len(rows[i].Extra) != nextra {
			panic("dist: ragged row set")
		}
	}
	dst = append(dst, byte(width), byte(nextra))
	col := scratchColumn(scratch, n)
	for c := 0; c < width+2+nextra; c++ {
		for i := range rows {
			col[i] = *cell(&rows[i], c)
		}
		lo, hi := col[0], col[0]
		for _, v := range col[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		bits := enc.BitWidth64(lo, hi)
		if n > 1 && bits == 0 {
			bits = 1
		}
		dst = binary.AppendVarint(dst, lo)
		dst = append(dst, byte(bits))
		dst = enc.AppendPackedColumn(dst, col, lo, bits)
	}
	return dst
}

// DecodeRowSet decodes one row-set block spanning all of src. The rows are
// built in three allocations whatever their number — one []Row, one Group
// arena, one Extra arena, every Group and Extra a cap-limited window, the
// aliasing contract workload.Row documents — and share no memory with src.
func DecodeRowSet(src []byte) ([]workload.Row, error) {
	var col []int64
	r := reader{what: "row set", buf: src}
	rows := r.rowSet(&col)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rows, nil
}

// rowSet reads one row-set block, unpacking each column through *col.
func (r *reader) rowSet(scratch *[]int64) []workload.Row {
	n64 := r.uvarint()
	if r.err != nil || n64 == 0 {
		return nil
	}
	width, nextra := int(r.byte()), int(r.byte())
	if width > maxRowSetDim || nextra > maxRowSetDim {
		r.fail("width %d with %d extra measures", width, nextra)
	}
	// Each column of a multi-row block spends at least a bit on every row.
	if n64 > 1 && n64 > 8*uint64(r.left()) {
		r.fail("%d rows in %d bytes", n64, r.left())
	}
	n, ncols := int(n64), width+2+nextra
	// Walk the columns once to see that they are all there before allocating
	// anything for them, then again to unpack.
	start := r.pos
	for c := 0; c < ncols && r.err == nil; c++ {
		r.column(n)
	}
	if r.err != nil {
		return nil
	}
	r.pos = start

	rows := make([]workload.Row, n)
	groups := make([]int64, n*width)
	var extras []int64
	if nextra > 0 {
		extras = make([]int64, n*nextra)
	}
	for i := range rows {
		rows[i].Group = groups[i*width : (i+1)*width : (i+1)*width]
		if nextra > 0 {
			rows[i].Extra = extras[i*nextra : (i+1)*nextra : (i+1)*nextra]
		}
	}
	col := scratchColumn(scratch, n)
	for c := 0; c < ncols; c++ {
		base, bits, data := r.column(n)
		enc.UnpackColumn(data, n, base, bits, col)
		for i, v := range col {
			*cell(&rows[i], c) = v
		}
	}
	return rows
}

// cell addresses column c of a row: its group columns, Sum, Count, extras.
func cell(r *workload.Row, c int) *int64 {
	switch e := c - len(r.Group); e {
	case 0:
		return &r.Sum
	case 1:
		return &r.Count
	default:
		if e < 0 {
			return &r.Group[c]
		}
		return &r.Extra[e-2]
	}
}

// column reads one column header of an n-row block and its packed bytes.
func (r *reader) column(n int) (base int64, bits uint, data []byte) {
	base, bits = r.varint(), uint(r.byte())
	if bits > 64 || (bits == 0 && n > 1) {
		r.fail("a column of %d rows %d bits wide", n, bits)
		return 0, 0, nil
	}
	return base, bits, r.bytes(enc.PackedColumnBytes(n, bits))
}

// appendQuery appends one slice query.
func appendQuery(dst []byte, q workload.Query) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(q.Node)))
	for _, a := range q.Node {
		dst = appendString(dst, string(a))
	}
	dst = binary.AppendUvarint(dst, uint64(len(q.Fixed)))
	for _, p := range q.Fixed {
		dst = binary.AppendVarint(appendString(dst, string(p.Attr)), p.Value)
	}
	dst = binary.AppendUvarint(dst, uint64(len(q.Ranges)))
	for _, rg := range q.Ranges {
		dst = binary.AppendVarint(appendString(dst, string(rg.Attr)), rg.Lo)
		dst = binary.AppendVarint(dst, rg.Hi)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// query reads one slice query. An empty list decodes as a nil slice.
func (r *reader) query() workload.Query {
	var q workload.Query
	if n := r.count(1); n > 0 {
		q.Node = make([]lattice.Attr, n)
		for i := range q.Node {
			q.Node[i] = lattice.Attr(r.string())
		}
	}
	if n := r.count(2); n > 0 {
		q.Fixed = make([]workload.Pred, n)
		for i := range q.Fixed {
			q.Fixed[i] = workload.Pred{Attr: lattice.Attr(r.string()), Value: r.varint()}
		}
	}
	if n := r.count(3); n > 0 {
		q.Ranges = make([]workload.Range, n)
		for i := range q.Ranges {
			q.Ranges[i] = workload.Range{Attr: lattice.Attr(r.string()), Lo: r.varint(), Hi: r.varint()}
		}
	}
	return q
}

// appendQueryRequest appends FrameQuery's payload.
func appendQueryRequest(dst []byte, q workload.Query, traceID string, profile bool) []byte {
	var flags byte
	if profile {
		flags = flagProfile
	}
	return appendQuery(appendString(append(dst, flags), traceID), q)
}

// decodeQueryRequest decodes FrameQuery's payload.
func decodeQueryRequest(src []byte) (q workload.Query, traceID string, profile bool, err error) {
	r := reader{what: "query", buf: src}
	profile = r.flags(flagProfile)&flagProfile != 0
	traceID = r.string()
	q = r.query()
	return q, traceID, profile, r.finish()
}

// appendQueryBatchRequest appends FrameQueryBatch's payload.
func appendQueryBatchRequest(dst []byte, qs []workload.Query, parallelism int, traceID string) []byte {
	dst = appendString(append(dst, 0), traceID)
	dst = binary.AppendVarint(dst, int64(parallelism))
	dst = binary.AppendUvarint(dst, uint64(len(qs)))
	for _, q := range qs {
		dst = appendQuery(dst, q)
	}
	return dst
}

// decodeQueryBatchRequest decodes FrameQueryBatch's payload.
func decodeQueryBatchRequest(src []byte) (qs []workload.Query, parallelism int, traceID string, err error) {
	r := reader{what: "queryBatch", buf: src}
	r.flags(0)
	traceID = r.string()
	parallelism = int(r.varint())
	if n := r.count(3); n > 0 { // the emptiest query is its three zero counts
		qs = make([]workload.Query, n)
		for i := range qs {
			qs[i] = r.query()
		}
	}
	return qs, parallelism, traceID, r.finish()
}

// appendRowsReply appends FrameRows's payload. The profile, sent only when
// the request asked for one, stays JSON: it is the EXPLAIN-ANALYZE shape the
// HTTP API already serves.
func appendRowsReply(dst []byte, generation int, rows []workload.Row, prof *workload.QueryProfile, col *[]int64) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(generation))
	if prof == nil {
		return appendRowSet(append(dst, 0), rows, col), nil
	}
	dst = appendRowSet(append(dst, flagProfile), rows, col)
	pj, err := json.Marshal(prof)
	if err != nil {
		return nil, err
	}
	return append(binary.AppendUvarint(dst, uint64(len(pj))), pj...), nil
}

// decodeRowsReply decodes FrameRows's payload.
func decodeRowsReply(src []byte, col *[]int64) (generation int, rows []workload.Row, prof *workload.QueryProfile, err error) {
	r := reader{what: "rows", buf: src}
	generation = int(r.uvarint())
	profiled := r.flags(flagProfile)&flagProfile != 0
	rows = r.rowSet(col)
	if profiled {
		pj := r.bytes(r.count(1))
		if r.err == nil {
			prof = new(workload.QueryProfile)
			if jerr := json.Unmarshal(pj, prof); jerr != nil {
				r.fail("profile: %v", jerr)
			}
		}
	}
	return generation, rows, prof, r.finish()
}

// appendRowsBatchReply appends FrameRowsBatch's payload.
func appendRowsBatchReply(dst []byte, generation int, results [][]workload.Row, col *[]int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(generation))
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for _, rows := range results {
		dst = appendRowSet(dst, rows, col)
	}
	return dst
}

// decodeRowsBatchReply decodes FrameRowsBatch's payload.
func decodeRowsBatchReply(src []byte, col *[]int64) (generation int, results [][]workload.Row, err error) {
	r := reader{what: "rowsBatch", buf: src}
	generation = int(r.uvarint())
	if n := r.count(1); n > 0 {
		results = make([][]workload.Row, n)
		for i := range results {
			results[i] = r.rowSet(col)
		}
	}
	return generation, results, r.finish()
}

// appendRefreshPrepare appends FrameRefreshPrepare's payload: the attribute
// names, then the shard's slice of the delta as one row-set block.
func appendRefreshPrepare(dst []byte, attrs []lattice.Attr, rows []workload.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst = appendString(dst, string(a))
	}
	return AppendRowSet(dst, rows)
}

// decodeRefreshPrepare decodes FrameRefreshPrepare's payload for a shard
// whose views read attrs. Attribute names other than attrs, and a fact that
// is not one value per attribute counted once, are refused like any
// malformed payload.
func decodeRefreshPrepare(src []byte, attrs []lattice.Attr) ([]workload.Row, error) {
	r := reader{what: "refreshPrepare", buf: src}
	if n := r.count(1); n != len(attrs) {
		r.fail("%d attributes, the shard reads %d", n, len(attrs))
	}
	for _, a := range attrs {
		if got := r.string(); got != string(a) {
			r.fail("attribute %q where the shard reads %q", got, a)
		}
	}
	var col []int64
	rows := r.rowSet(&col)
	for _, f := range rows {
		if len(f.Group) != len(attrs) || len(f.Extra) != 0 || f.Count != 1 {
			r.fail("a fact of %d columns and %d extra measures counted %d times, for %d attributes",
				len(f.Group), len(f.Extra), f.Count, len(attrs))
			break
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rows, nil
}

// reader walks a binary payload. Its first failure sticks: every later read
// returns zero, so a decoder reads straight through and asks finish once.
type reader struct {
	what string
	buf  []byte
	pos  int
	str  string // string(buf), made at the first string read: one copy backs every name
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &PayloadError{What: r.what, Reason: fmt.Sprintf(format, args...)}
	}
}

// finish reports the walk's outcome; bytes nothing read are an error.
func (r *reader) finish() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.pos)
	}
	return r.err
}

func (r *reader) left() int { return len(r.buf) - r.pos }

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	r.pos++
	return r.buf[r.pos-1]
}

// flags reads a flags byte, refusing any bit outside known.
func (r *reader) flags(known byte) byte {
	f := r.byte()
	if f&^known != 0 {
		r.fail("reserved flag bits 0x%02x", f&^known)
	}
	return f
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads the length of a list whose elements take at least each bytes,
// refusing one the bytes left cannot hold.
func (r *reader) count(each int) int {
	n := r.uvarint()
	if n > uint64(r.left()/each) {
		r.fail("%d elements in %d bytes", n, r.left())
		return 0
	}
	return int(n)
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || n > r.left() {
		r.fail("truncated")
		return nil
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos]
}

func (r *reader) string() string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	if r.str == "" {
		r.str = string(r.buf)
	}
	r.pos += n
	return r.str[r.pos-n : r.pos]
}
