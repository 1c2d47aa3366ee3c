package extsort

import (
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

func drain(t *testing.T, it Iterator, fields int) [][]int64 {
	t.Helper()
	var out [][]int64
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, enc.Tuple(rec, fields))
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

func TestSortInMemory(t *testing.T) {
	s := NewSorter(t.TempDir(), 8, enc.LessByFields([]int{0}), 1<<20, nil)
	for _, v := range []int64{5, 3, 9, 1, 7} {
		if err := s.AddTuple([]int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it, 1)
	want := []int64{1, 3, 5, 7, 9}
	for i, w := range want {
		if got[i][0] != w {
			t.Fatalf("got[%d] = %d, want %d", i, got[i][0], w)
		}
	}
}

func TestSortSpillsRuns(t *testing.T) {
	// memLimit of 64 bytes = 8 records per run; 1000 records forces many
	// runs and a real k-way merge.
	stats := &pager.Stats{}
	s := NewSorter(t.TempDir(), 8, enc.LessByFields([]int{0}), 64, stats)
	r := rand.New(rand.NewSource(7))
	var want []int64
	for i := 0; i < 1000; i++ {
		v := r.Int63n(500)
		want = append(want, v)
		if err := s.AddTuple([]int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it, 1)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i] {
			t.Fatalf("record %d = %d, want %d", i, got[i][0], want[i])
		}
	}
	// 125 runs of one page each, and 8,000 merged bytes read back as one.
	if w, rd := stats.SeqWrites(), stats.SeqReads(); w != 125 || rd != 1 {
		t.Errorf("spill I/O charged %d sequential writes and %d reads, want 125 and 1", w, rd)
	}
}

func TestSortEmpty(t *testing.T) {
	s := NewSorter(t.TempDir(), 16, enc.LessByFields([]int{0, 1}), 0, nil)
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it, 2); len(got) != 0 {
		t.Fatalf("empty sort yielded %d records", len(got))
	}
}

func TestSortStability_DuplicatesSurvive(t *testing.T) {
	s := NewSorter(t.TempDir(), 8, enc.LessByFields([]int{0}), 32, nil)
	for i := 0; i < 100; i++ {
		s.AddTuple([]int64{int64(i % 5)})
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it, 1)
	if len(got) != 100 {
		t.Fatalf("duplicates lost: %d of 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][0] > got[i][0] {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestAddWrongWidth(t *testing.T) {
	s := NewSorter(t.TempDir(), 8, enc.LessByFields([]int{0}), 0, nil)
	if err := s.AddTuple([]int64{1, 2}); err == nil {
		t.Fatal("expected tuple width error")
	}
}

func TestAddAfterSort(t *testing.T) {
	s := NewSorter(t.TempDir(), 8, enc.LessByFields([]int{0}), 0, nil)
	if _, err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTuple([]int64{1}); err == nil {
		t.Fatal("expected error adding after Sort")
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("expected error sorting twice")
	}
}

func TestSortMultiFieldOrderQuick(t *testing.T) {
	less := enc.LessByFields([]int{1, 0}) // pack order of 2-field tuples
	f := func(raw []uint16) bool {
		dir := t.TempDir()
		s := NewSorter(dir, 16, less, 48, nil) // force spills for len > 3
		var want [][]int64
		for i, v := range raw {
			tup := []int64{int64(v), int64(i % 7)}
			want = append(want, tup)
			if err := s.AddTuple(tup); err != nil {
				return false
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			a := enc.AppendTuple(nil, want[i])
			b := enc.AppendTuple(nil, want[j])
			return less.Less(a, b)
		})
		it, err := s.Sort()
		if err != nil {
			return false
		}
		var got [][]int64
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, enc.Tuple(rec, 2))
		}
		it.Close()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscard(t *testing.T) {
	s := NewSorter(t.TempDir(), 8, enc.LessByFields([]int{0}), 0, nil)
	for i := 0; i < 10; i++ {
		s.AddTuple([]int64{int64(i)})
	}
	it, _ := s.Sort()
	n, err := Discard(it)
	if err != nil || n != 10 {
		t.Fatalf("Discard = %d, %v", n, err)
	}
}
