package extsort

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// refSort is the reference the radix sort is held to: a stable comparison
// sort by the order's fields as signed int64s, the first field major.
func refSort(tuples [][]int64, order []int) [][]int64 {
	out := slices.Clone(tuples)
	sort.SliceStable(out, func(i, j int) bool {
		for _, f := range order {
			if out[i][f] != out[j][f] {
				return out[i][f] < out[j][f]
			}
		}
		return false
	})
	return out
}

// sortAll runs tuples through a Sorter with the given memory limit and
// returns what it yields, in order.
func sortAll(dir string, tuples [][]int64, nf int, order []int, memLimit int) ([][]int64, error) {
	s := NewSorter(dir, enc.TupleSize(nf), enc.LessByFields(order), memLimit, nil)
	for _, tup := range tuples {
		if err := s.AddTuple(tup); err != nil {
			return nil, err
		}
	}
	it, err := s.Sort()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var got [][]int64
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return nil, err
		}
		got = append(got, enc.Tuple(rec, nf))
	}
}

// sameSort reports how got differs from the reference order of tuples: the
// key sequence must match exactly, and the records as a multiset (records
// with equal keys may come out in any order).
func sameSort(got, tuples [][]int64, order []int) error {
	want := refSort(tuples, order)
	if len(got) != len(want) {
		return fmt.Errorf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		for _, f := range order {
			if got[i][f] != want[i][f] {
				return fmt.Errorf("record %d = %v, want key of %v", i, got[i], want[i])
			}
		}
	}
	all := make([]int, len(tuples[0]))
	for i := range all {
		all[i] = i
	}
	g, w := refSort(got, all), refSort(want, all)
	for i := range w {
		if !slices.Equal(g[i], w[i]) {
			return fmt.Errorf("records differ as a multiset: %v vs %v", g[i], w[i])
		}
	}
	return nil
}

// keyOrders lists every ordering of every non-empty subset of nf fields.
func keyOrders(nf int) [][]int {
	var out [][]int
	var grow func(prefix []int, used int)
	grow = func(prefix []int, used int) {
		if len(prefix) > 0 {
			out = append(out, slices.Clone(prefix))
		}
		for f := 0; f < nf; f++ {
			if used&(1<<f) == 0 {
				grow(append(prefix, f), used|1<<f)
			}
		}
	}
	grow(nil, 0)
	return out
}

// columnKinds generate one column of test values each: the extremes of
// int64, negatives, duplicates, constants, and ranges that together need
// more than 64 bits.
var columnKinds = []func(r *rand.Rand) int64{
	func(r *rand.Rand) int64 { return r.Int63n(8) },                                                // few distinct values
	func(r *rand.Rand) int64 { return int64(r.Uint64()) },                                          // the full int64 range
	func(r *rand.Rand) int64 { return []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}[r.Intn(5)] }, // the extremes
	func(r *rand.Rand) int64 { return 42 },                                                         // constant
	func(r *rand.Rand) int64 { return r.Int63n(1000) - 500 },                                       // negatives
	func(r *rand.Rand) int64 { return math.MinInt64 },                                              // constant at the bottom
	func(r *rand.Rand) int64 { return math.MaxInt64 - r.Int63n(3) },                                // just below the top
}

func genTuples(r *rand.Rand, n, nf int) [][]int64 {
	kinds := make([]func(*rand.Rand) int64, nf)
	for i := range kinds {
		kinds[i] = columnKinds[r.Intn(len(columnKinds))]
	}
	tuples := make([][]int64, n)
	for i := range tuples {
		tuples[i] = make([]int64, nf)
		for f := range tuples[i] {
			tuples[i][f] = kinds[f](r)
		}
	}
	return tuples
}

// TestRadixMatchesReference holds the sorter to sort.SliceStable on tuples
// of 1–6 fields under every key order (a seeded sample of them past 4
// fields), sorted in memory, spilled with a serial merge, and spilled with
// the parallel merge.
func TestRadixMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r, dir := rand.New(rand.NewSource(47)), t.TempDir()
	for nf := 1; nf <= 6; nf++ {
		orders := keyOrders(nf)
		if nf > 4 {
			r.Shuffle(len(orders), func(i, j int) { orders[i], orders[j] = orders[j], orders[i] })
			orders = orders[:40]
		}
		for _, order := range orders {
			tuples := genTuples(r, 150+r.Intn(100), nf)
			for _, mode := range []struct {
				name     string
				memLimit int
				procs    int
			}{
				{"memory", 0, 1},
				{"spilled", enc.TupleSize(nf) * 48, 1},
				{"parallel", enc.TupleSize(nf) * 48, 4},
			} {
				runtime.GOMAXPROCS(mode.procs)
				got, err := sortAll(dir, tuples, nf, order, mode.memLimit)
				if err == nil {
					err = sameSort(got, tuples, order)
				}
				if err != nil {
					t.Fatalf("%d fields, order %v, %s: %v", nf, order, mode.name, err)
				}
			}
		}
	}
}

// TestRadixKeyWiderThan64Bits packs key fields whose ranges need 64 bits
// each, so every field is its own radix word.
func TestRadixKeyWiderThan64Bits(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tuples := make([][]int64, 500)
	for i := range tuples {
		tuples[i] = []int64{int64(r.Uint64()), []int64{math.MinInt64, math.MaxInt64}[r.Intn(2)], int64(r.Uint64()) >> 1}
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2}} {
		got, err := sortAll(t.TempDir(), tuples, 3, order, 0)
		if err == nil {
			err = sameSort(got, tuples, order)
		}
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

// FuzzSorter checks the sorter against the reference sort on tuples, field
// counts, key orders and memory limits the fuzzer picks. Byte 0 picks the
// field count and whether to spill; the next bytes the key order; each byte
// after that one value: small ones repeat often, the rest are extremes.
func FuzzSorter(f *testing.F) {
	f.Add([]byte{0x02, 0x01, 0x00, 0x05, 0xff, 0x07, 0xf3, 0x10, 0x00})
	f.Add([]byte{0x85, 0x04, 0x02, 0x00, 0x03, 0x01, 0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0x00, 0x00, 0x11})
	f.Add([]byte{0x00, 0x00, 0xf0, 0xf1, 0xf0, 0xf1})
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 40, -1 << 40, 1 << 62, -1 << 62, 255, 256, -256, 65535, 65536}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nf := 1 + int(data[0]&0x7f)%6
		spill := data[0]&0x80 != 0
		data = data[1:]
		// A key order: a permutation of the fields (Fisher–Yates on the
		// next bytes), cut to a length the first of them picks.
		perm := []int{0, 1, 2, 3, 4, 5}[:nf]
		nk := 1 + int(data[0])%nf
		for i := nf - 1; i > 0 && len(data) > 0; i-- {
			j := int(data[0]) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
			data = data[1:]
		}
		order := perm[:nk]
		var tuples [][]int64
		for len(data) >= nf && len(tuples) < 512 {
			tup := make([]int64, nf)
			for i, b := range data[:nf] {
				if b < 0xf0 {
					tup[i] = int64(b%16) - 8
				} else {
					tup[i] = extremes[b-0xf0]
				}
			}
			tuples = append(tuples, tup)
			data = data[nf:]
		}
		if len(tuples) == 0 {
			return
		}
		memLimit := 0
		if spill {
			memLimit = enc.TupleSize(nf) * 4
		}
		got, err := sortAll(t.TempDir(), tuples, nf, order, memLimit)
		if err == nil {
			err = sameSort(got, tuples, order)
		}
		if err != nil {
			t.Fatalf("%d fields, order %v, spill %v: %v", nf, order, spill, err)
		}
	})
}

// TestSpilledSortTransfers pins the sequential page transfers one spilled
// sort charges: its runs' writes and the merge's reads, under the serial
// and the parallel merge alike.
func TestSpilledSortTransfers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		stats := &pager.Stats{}
		s := NewSorter(t.TempDir(), 32, enc.LessByFields([]int{2, 1, 0}), 64<<10, stats)
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 20000; i++ {
			if err := s.AddTuple([]int64{r.Int63n(1 << 20), r.Int63n(1 << 20), r.Int63n(1 << 20), 1}); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := Discard(it); err != nil || n != 20000 {
			t.Fatalf("Discard = %d, %v", n, err)
		}
		if w, rd := stats.SeqWrites(), stats.SeqReads(); w != 79 || rd != 79 {
			t.Errorf("GOMAXPROCS=%d: %d sequential writes and %d reads, want 79 and 79", procs, w, rd)
		}
	}
}

// TestTruncatedRunFails cuts one spilled run short by a few bytes: the
// merge must fail, serial or parallel, rather than yield fewer records.
func TestTruncatedRunFails(t *testing.T) {
	const width = 16
	for _, groups := range []int{1, 2} {
		dir := t.TempDir()
		var runs []string
		for i := 0; i < 4; i++ {
			var buf []byte
			for v := int64(0); v < 100; v++ {
				buf = enc.AppendTuple(buf, []int64{v*4 + int64(i), 1})
			}
			if i == 2 {
				buf = buf[:len(buf)-3]
			}
			path := filepath.Join(dir, fmt.Sprintf("run-%d.sort", i))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			runs = append(runs, path)
		}
		order := enc.LessByFields([]int{0})
		var it Iterator
		var err error
		if groups == 1 {
			it, err = newMergeIterator(runs, width, order, &pager.Stats{}, nil)
		} else {
			it, err = newParallelMerge(runs, width, order, &pager.Stats{}, nil, groups)
		}
		if err == nil {
			var n int64
			n, err = Discard(it)
			if err == nil {
				t.Fatalf("%d merge groups: a cut run read as %d records, want an error", groups, n)
			}
		}
	}
}
