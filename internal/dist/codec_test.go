package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cubetree/internal/lattice"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

// randomRows draws n rows of the given shape: group values uniform over a
// domain centred on zero (so half are negative), sums and extras over 2^40
// either side of zero, counts in 1..1000. Rows may repeat — the codec is
// positional and must not care.
func randomRows(rng *rand.Rand, n, width, nextra int, domain uint64) []workload.Row {
	rows := make([]workload.Row, n)
	for i := range rows {
		r := workload.Row{
			Group: make([]int64, width),
			Sum:   rng.Int63n(1<<41) - 1<<40,
			Count: 1 + rng.Int63n(1000),
		}
		for j := range r.Group {
			r.Group[j] = int64(rng.Uint64()%domain) - int64(domain/2)
		}
		if nextra > 0 {
			r.Extra = make([]int64, nextra)
			for j := range r.Extra {
				r.Extra[j] = rng.Int63n(1<<41) - 1<<40
			}
		}
		rows[i] = r
	}
	return rows
}

// checkRowSet round-trips rows through the block and checks the decoded
// rows: equal to the input, nothing left of src in them, and every Group and
// Extra a cap-limited window, so appending to one row never reaches the next.
func checkRowSet(t *testing.T, rows []workload.Row) {
	t.Helper()
	src := AppendRowSet(nil, rows)
	got, err := DecodeRowSet(src)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range src {
		src[i] = 0xff // the rows must not alias the bytes they came from
	}
	if !workload.EqualRows(got, rows) {
		t.Fatalf("round trip of %d rows: got %v\nwant %v", len(rows), got, rows)
	}
	for i := 0; i+1 < len(got); i++ {
		next := workload.Row{
			Group: append([]int64(nil), got[i+1].Group...),
			Sum:   got[i+1].Sum, Count: got[i+1].Count,
			Extra: append([]int64(nil), got[i+1].Extra...),
		}
		_ = append(got[i].Group, 42)
		_ = append(got[i].Extra, 42)
		if !workload.EqualRows(got[i+1:i+2], []workload.Row{next}) {
			t.Fatalf("appending to row %d changed row %d: %v, was %v", i, i+1, got[i+1], next)
		}
	}
}

func TestRowSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for width := 0; width <= 5; width++ {
		for _, domain := range []uint64{1, 1 << 20, 1 << 62} {
			for _, nextra := range []int{0, 2} {
				for _, n := range []int{0, 1, 17, 4096} {
					t.Run(fmt.Sprintf("w%d/d%d/e%d/n%d", width, domain, nextra, n), func(t *testing.T) {
						checkRowSet(t, randomRows(rng, n, width, nextra, domain))
					})
				}
			}
		}
	}
	t.Run("full range", func(t *testing.T) {
		edge := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
		var rows []workload.Row
		for i := range edge {
			at := func(k int) int64 { return edge[(i+k)%len(edge)] }
			rows = append(rows, workload.Row{
				Group: []int64{at(0), at(1), at(2)}, Sum: at(3), Count: at(4), Extra: []int64{at(5), at(6)},
			})
		}
		checkRowSet(t, rows)
		checkRowSet(t, rows[:1])
		checkRowSet(t, rows[:2]) // MinInt64 beside MaxInt64: a 64-bit column
	})
	t.Run("scalar", func(t *testing.T) {
		checkRowSet(t, []workload.Row{{Sum: 764366, Count: 30006}})
		checkRowSet(t, []workload.Row{{Sum: math.MinInt64, Count: math.MaxInt64, Extra: []int64{1, 50}}})
	})
	t.Run("identical rows", func(t *testing.T) {
		// Every column constant: each still spends its one bit per row.
		rows := make([]workload.Row, 1000)
		for i := range rows {
			rows[i] = workload.Row{Group: []int64{7, -7}, Sum: 3, Count: 1}
		}
		checkRowSet(t, rows)
	})
}

// TestRowSetAllocations pins the decoder's promise: through a connection's
// scratch, a row set costs three allocations whatever its size (two without
// extra measures, one for a scalar).
func TestRowSetAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, width, nextra, want int }{
		{10, 3, 2, 3}, {5000, 3, 2, 3}, {5000, 2, 0, 2}, {1, 0, 0, 1},
	} {
		src := AppendRowSet(nil, randomRows(rng, tc.n, tc.width, tc.nextra, 1<<20))
		col := make([]int64, tc.n)
		got := testing.AllocsPerRun(20, func() {
			r := reader{what: "row set", buf: src}
			if rows := r.rowSet(&col); len(rows) != tc.n || r.finish() != nil {
				t.Fatal("decode failed")
			}
		})
		if int(got) != tc.want {
			t.Errorf("%d rows × (%d + %d): %v allocations, want %d", tc.n, tc.width, tc.nextra, got, tc.want)
		}
	}
}

// TestRowSetSurvivesBufferReuse decodes a second frame out of the very bytes
// the first came from, through the same column scratch — what a pooled
// connection does — and checks the first answer is untouched.
func TestRowSetSurvivesBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	first, second := randomRows(rng, 300, 3, 2, 1<<20), randomRows(rng, 300, 3, 2, 1<<20)
	buf := appendRowsReplyMust(t, nil, 7, first)
	var col []int64
	gen, held, _, err := decodeRowsReply(buf, &col)
	if err != nil || gen != 7 {
		t.Fatalf("generation %d, %v", gen, err)
	}
	buf = appendRowsReplyMust(t, buf[:0], 8, second)
	if _, got, _, err := decodeRowsReply(buf, &col); err != nil || !workload.EqualRows(got, second) {
		t.Fatalf("second frame: %v", err)
	}
	if !workload.EqualRows(held, first) {
		t.Fatal("the first answer changed when its buffer carried the next frame")
	}
}

func appendRowsReplyMust(t *testing.T, dst []byte, generation int, rows []workload.Row) []byte {
	t.Helper()
	var col []int64
	out, err := appendRowsReply(dst, generation, rows, nil, &col)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRowsReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, 40, 2, 2, 1<<20)
	prof := &workload.QueryProfile{TraceID: "beef", PointsScanned: 1234, LeafPagesRead: 5, LeafPagesSkipped: 6}
	var col []int64
	for _, want := range []*workload.QueryProfile{nil, prof} {
		src, err := appendRowsReply(nil, 12345, rows, want, &col)
		if err != nil {
			t.Fatal(err)
		}
		gen, got, gotProf, err := decodeRowsReply(src, &col)
		if err != nil || gen != 12345 || !workload.EqualRows(got, rows) || !reflect.DeepEqual(gotProf, want) {
			t.Fatalf("rows reply: generation %d, %d rows, profile %+v, %v", gen, len(got), gotProf, err)
		}
	}
	batch := [][]workload.Row{rows, nil, randomRows(rng, 1, 0, 0, 1), randomRows(rng, 500, 3, 0, 1<<62)}
	src := appendRowsBatchReply(nil, 9, batch, &col)
	gen, got, err := decodeRowsBatchReply(src, &col)
	if err != nil || gen != 9 || len(got) != len(batch) {
		t.Fatalf("rows batch: generation %d, %d results, %v", gen, len(got), err)
	}
	for i := range batch {
		if !workload.EqualRows(got[i], batch[i]) {
			t.Fatalf("rows batch result %d differs", i)
		}
	}
}

// hostileRowSets are blocks the decoder must refuse, each with the reason's
// keyword.
func hostileRowSets() map[string]struct {
	src  []byte
	want string
} {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	good := AppendRowSet(nil, []workload.Row{{Group: []int64{1}, Sum: 2, Count: 3}, {Group: []int64{4}, Sum: 5, Count: 6}})
	return map[string]struct {
		src  []byte
		want string
	}{
		"empty":                {nil, "truncated"},
		"width 65":             {cat(uv(1), []byte{65, 0}), "width 65"},
		"nextra 65":            {cat(uv(1), []byte{0, 65}), "65 extra"},
		"huge zero-width rows": {cat(uv(1<<40), []byte{0, 0}, []byte{0, 0, 0, 0}), "rows in"},
		"zero-width multi-row": {cat(uv(2), []byte{0, 0}, []byte{0, 0, 0, 0}), "0 bits wide"},
		"rows beyond bytes":    {cat(uv(1000), []byte{0, 0}, []byte{0, 1, 0xff, 0, 1, 0xff}), "rows in"},
		"65-bit column":        {cat(uv(1), []byte{0, 0}, []byte{0, 65}), "65 bits wide"},
		"truncated column":     {good[:len(good)-1], "truncated"},
		"missing column":       {cat(uv(1), []byte{1, 0}, []byte{0, 0, 0, 0}), "truncated"},
		"trailing bytes":       {cat(good, []byte{0}), "trailing"},
		"overlong varint":      {bytes.Repeat([]byte{0x80}, 11), "varint"},
	}
}

func TestDecodeRowSetRejects(t *testing.T) {
	for name, tc := range hostileRowSets() {
		t.Run(name, func(t *testing.T) {
			rows, err := DecodeRowSet(tc.src)
			var pe *PayloadError
			if !errors.As(err, &pe) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v (%d rows), want a *PayloadError mentioning %q", err, len(rows), tc.want)
			}
		})
	}
	// The same refusals hold inside a rows reply, plus its own flags byte.
	var col []int64
	if _, _, _, err := decodeRowsReply([]byte{1, 0x02, 0}, &col); err == nil || !strings.Contains(err.Error(), "reserved flag") {
		t.Fatalf("reserved flag bit: %v", err)
	}
	if _, _, _, err := decodeRowsReply([]byte{1, flagProfile, 0, 3, '{', '}'}, &col); err == nil {
		t.Fatal("a profile shorter than its length prefix was accepted")
	}
	// A refreshPrepare payload refuses what does not fit the shard's own
	// attributes, and trailing bytes.
	attrs := []lattice.Attr{"a", "b"}
	fact := workload.Row{Group: []int64{1, 2}, Sum: 3, Count: 1}
	prepare := func(attrs []lattice.Attr, rows ...workload.Row) []byte {
		return appendRefreshPrepare(nil, attrs, rows)
	}
	for name, tc := range map[string]struct {
		src  []byte
		want string
	}{
		"other attribute":    {prepare([]lattice.Attr{"a", "c"}, fact), `"c"`},
		"fewer attributes":   {prepare([]lattice.Attr{"a"}), "1 attributes"},
		"narrow rows":        {prepare(attrs, workload.Row{Group: []int64{1}, Count: 1}), "1 columns"},
		"extra measures":     {prepare(attrs, workload.Row{Group: []int64{1, 2}, Count: 1, Extra: []int64{4}}), "1 extra"},
		"fact counted twice": {prepare(attrs, fact, workload.Row{Group: []int64{1, 2}, Count: 2}), "counted 2 times"},
		"trailing bytes":     {append(prepare(attrs, fact), 0), "trailing"},
	} {
		rows, err := decodeRefreshPrepare(tc.src, attrs)
		var pe *PayloadError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("refreshPrepare %s: err = %v (%d rows), want a *PayloadError mentioning %q", name, err, len(rows), tc.want)
		}
	}
}

// TestDecodeRowSetNoOverAllocate is TestDecodeFrameNoOverAllocate one layer
// up: a block declaring 2^40 rows of zero-width columns — which no number of
// bytes could back — fails on its handful of bytes without allocating for the
// rows it claims.
func TestDecodeRowSetNoOverAllocate(t *testing.T) {
	src := hostileRowSets()["huge zero-width rows"].src
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRowSet(src); err == nil {
			t.Fatal("accepted")
		}
	})
	runtime.ReadMemStats(&after)
	if allocs > 8 || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Fatalf("refusing %d bytes took %v allocations and %d bytes", len(src), allocs, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestRefreshPrepareWireSize pins what a refresh delta costs on the wire: the
// TPC-D SF 0.05 10 % increment (seed 1998) over the three foreign keys, split
// over 2 shards, round-trips through the refreshPrepare payloads at no more
// than 6 bytes a fact. The CSV inside JSON that the binary payload replaced
// cost 21.8.
func TestRefreshPrepareWireSize(t *testing.T) {
	ds := tpcd.New(tpcd.Params{SF: 0.05, Seed: 1998})
	attrs := []lattice.Attr{tpcd.AttrCustomer, tpcd.AttrPart, tpcd.AttrSupplier}
	parts, err := Partition(tpcdIncrement{ds.Increment(0.1, 1)}, attrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var facts, size int
	for i, part := range parts {
		payload := appendRefreshPrepare(nil, attrs, part)
		got, err := decodeRefreshPrepare(payload, attrs)
		if err != nil || !workload.EqualRows(got, part) {
			t.Fatalf("shard %d: %d facts decode to %d, %v", i, len(part), len(got), err)
		}
		facts += len(part)
		size += len(payload)
	}
	perFact := float64(size) / float64(facts)
	t.Logf("%d facts in %d bytes: %.2f B/fact", facts, size, perFact)
	if facts != 30006 || perFact > 6.0 {
		t.Fatalf("%d facts at %.2f B/fact, want 30006 at ≤ 6.0", facts, perFact)
	}
}

// tpcdIncrement is a TPC-D fact stream with quantity as the measure.
type tpcdIncrement struct{ *tpcd.Iterator }

func (f tpcdIncrement) Measure() int64 { return f.Fact().Quantity }

// testQueries is every query shape the benchmark's slice and scan lists
// produce — each lattice node with each subset of its attributes fixed, and
// each remaining attribute with and without a range — plus the empty node,
// negative and extreme bounds, and a repeated attribute.
func wireTestQueries() []workload.Query {
	attrs := []lattice.Attr{"partkey", "suppkey", "custkey"}
	var qs []workload.Query
	for nodeMask := 0; nodeMask < 1<<len(attrs); nodeMask++ {
		var node []lattice.Attr
		for j, a := range attrs {
			if nodeMask&(1<<j) != 0 {
				node = append(node, a)
			}
		}
		for fixedMask := 0; fixedMask < 1<<len(node); fixedMask++ {
			for _, ranged := range []bool{false, true} {
				q := workload.Query{Node: node}
				for j, a := range node {
					switch {
					case fixedMask&(1<<j) != 0:
						q.Fixed = append(q.Fixed, workload.Pred{Attr: a, Value: int64(17*(j+1)) - 20})
					case ranged:
						q.Ranges = append(q.Ranges, workload.Range{Attr: a, Lo: -int64(j) - 5, Hi: int64(1000 * (j + 1))})
					}
				}
				qs = append(qs, q)
			}
		}
	}
	return append(qs,
		workload.Query{},
		workload.Query{Node: []lattice.Attr{"a"}, Fixed: []workload.Pred{{Attr: "a", Value: math.MinInt64}}},
		workload.Query{Node: []lattice.Attr{"a", ""}, Ranges: []workload.Range{
			{Attr: "a", Lo: math.MinInt64, Hi: math.MaxInt64}, {Attr: "", Lo: -1, Hi: -1}, {Attr: "a", Lo: 0, Hi: 0}}},
	)
}

func TestQueryRoundTrip(t *testing.T) {
	qs := wireTestQueries()
	for i, q := range qs {
		traceID, profile := "", i%2 == 1
		if i%3 > 0 {
			traceID = strings.Repeat("beef", 8)
		}
		src := appendQueryRequest(nil, q, traceID, profile)
		got, gotID, gotProfile, err := decodeQueryRequest(src)
		if err != nil || !reflect.DeepEqual(got, q) || gotID != traceID || gotProfile != profile {
			t.Fatalf("query %s: got %s trace %q profile %v, %v", q, got, gotID, gotProfile, err)
		}
		if _, _, _, err := decodeQueryRequest(append(src, 0)); err == nil {
			t.Fatalf("query %s: trailing byte accepted", q)
		}
		if _, _, _, err := decodeQueryRequest(src[:len(src)-1]); err == nil {
			t.Fatalf("query %s: truncated payload accepted", q)
		}
	}
	for _, parallelism := range []int{-1, 0, 8} {
		src := appendQueryBatchRequest(nil, qs, parallelism, "cafe")
		got, gotPar, gotID, err := decodeQueryBatchRequest(src)
		if err != nil || !reflect.DeepEqual(got, qs) || gotPar != parallelism || gotID != "cafe" {
			t.Fatalf("batch of %d at parallelism %d: %d queries, parallelism %d, trace %q, %v",
				len(qs), parallelism, len(got), gotPar, gotID, err)
		}
	}
	if qs, _, _, err := decodeQueryBatchRequest(appendQueryBatchRequest(nil, nil, 1, "")); err != nil || qs != nil {
		t.Fatalf("empty batch: %v, %v", qs, err)
	}
	var pe *PayloadError
	if _, _, _, err := decodeQueryRequest([]byte{0x80, 0, 0, 0, 0}); !errors.As(err, &pe) {
		t.Fatalf("reserved query flag: %v", err)
	}
	// A count no run of bytes this short could hold is refused before the
	// slice for it is made.
	if _, _, _, err := decodeQueryRequest(append([]byte{0, 0}, binary.AppendUvarint(nil, 1<<50)...)); !errors.As(err, &pe) {
		t.Fatalf("huge node count: %v", err)
	}
}

func FuzzDecodeRowSet(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(AppendRowSet(nil, nil))
	f.Add(AppendRowSet(nil, randomRows(rng, 1, 0, 0, 1)))
	f.Add(AppendRowSet(nil, randomRows(rng, 9, 3, 2, 1<<20)))
	f.Add(AppendRowSet(nil, randomRows(rng, 70, 1, 0, 1<<62)))
	for _, tc := range hostileRowSets() {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRowSet(data)
		if err != nil {
			var pe *PayloadError
			if !errors.As(err, &pe) || rows != nil {
				t.Fatalf("refusal is %T with %d rows", err, len(rows))
			}
			return
		}
		// What was allocated is a fixed multiple of what was received.
		if n := len(rows); n > 0 {
			if mem := n * (64 + 8*(len(rows[0].Group)+len(rows[0].Extra))); mem > 256*len(data)+1200 {
				t.Fatalf("%d bytes decoded into %d rows, %d bytes of them", len(data), n, mem)
			}
		}
		again, err := DecodeRowSet(AppendRowSet(nil, rows))
		if err != nil || !workload.EqualRows(again, rows) {
			t.Fatalf("re-encoding what decoded does not decode to the same rows: %v", err)
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	for i, q := range wireTestQueries() {
		f.Add(appendQueryRequest(nil, q, strings.Repeat("ab", i%17), i%2 == 0))
	}
	f.Add(appendQueryBatchRequest(nil, wireTestQueries()[:9], 4, "cafe"))
	f.Add([]byte{0x80, 0, 0, 0, 0})
	fuzzAttrs := []lattice.Attr{"custkey", "partkey", "suppkey"}
	f.Add(appendRefreshPrepare(nil, fuzzAttrs, nil))
	f.Add(appendRefreshPrepare(nil, fuzzAttrs, []workload.Row{
		{Group: []int64{1, 2, 3}, Sum: 4, Count: 1}, {Group: []int64{-5, 6, 1 << 40}, Sum: -8, Count: 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, err := decodeRefreshPrepare(data, fuzzAttrs); err != nil {
			var pe *PayloadError
			if !errors.As(err, &pe) || rows != nil {
				t.Fatalf("refreshPrepare refusal is %T with %d rows", err, len(rows))
			}
		} else {
			again, err := decodeRefreshPrepare(appendRefreshPrepare(nil, fuzzAttrs, rows), fuzzAttrs)
			if err != nil || !workload.EqualRows(again, rows) {
				t.Fatalf("a delta of %d facts does not survive re-encoding: %v", len(rows), err)
			}
		}
		if q, traceID, profile, err := decodeQueryRequest(data); err == nil {
			q2, id2, p2, err := decodeQueryRequest(appendQueryRequest(nil, q, traceID, profile))
			if err != nil || !reflect.DeepEqual(q2, q) || id2 != traceID || p2 != profile {
				t.Fatalf("query %s does not survive re-encoding: %s, %v", q, q2, err)
			}
		}
		if qs, parallelism, traceID, err := decodeQueryBatchRequest(data); err == nil {
			if len(qs) > len(data) {
				t.Fatalf("%d queries out of %d bytes", len(qs), len(data))
			}
			qs2, par2, id2, err := decodeQueryBatchRequest(appendQueryBatchRequest(nil, qs, parallelism, traceID))
			if err != nil || !reflect.DeepEqual(qs2, qs) || par2 != parallelism || id2 != traceID {
				t.Fatalf("batch of %d does not survive re-encoding: %v", len(qs), err)
			}
		}
	})
}
