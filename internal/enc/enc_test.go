package enc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPutFieldRoundTrip(t *testing.T) {
	buf := make([]byte, TupleSize(3))
	vals := []int64{-1, 0, math.MaxInt64}
	for i, v := range vals {
		PutField(buf, i, v)
	}
	for i, v := range vals {
		if got := Field(buf, i); got != v {
			t.Errorf("field %d = %d, want %d", i, got, v)
		}
	}
}

func TestTupleRoundTripQuick(t *testing.T) {
	f := func(vals []int64) bool {
		buf := make([]byte, TupleSize(len(vals)))
		PutTuple(buf, vals)
		got := Tuple(buf, len(vals))
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendTuple(t *testing.T) {
	b := AppendTuple(nil, []int64{1, -2, 3})
	if len(b) != 24 {
		t.Fatalf("len = %d, want 24", len(b))
	}
	if Field(b, 1) != -2 {
		t.Fatalf("field 1 = %d", Field(b, 1))
	}
	b = AppendTuple(b, []int64{9})
	if Field(b, 3) != 9 {
		t.Fatalf("appended field = %d", Field(b, 3))
	}
}

func TestCompareFields(t *testing.T) {
	a := AppendTuple(nil, []int64{5, -10})
	b := AppendTuple(nil, []int64{5, 3})
	if CompareFields(a, b, 0) != 0 {
		t.Error("equal fields should compare 0")
	}
	if CompareFields(a, b, 1) != -1 {
		t.Error("-10 should be < 3 (signed comparison)")
	}
	if CompareFields(b, a, 1) != 1 {
		t.Error("3 should be > -10")
	}
}

func TestLessByFields(t *testing.T) {
	fields := []int{1, 0} // second field major
	order := LessByFields(fields)
	fields[0] = 0 // the Order keeps its own copy
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
	a := AppendTuple(nil, []int64{9, 1})
	b := AppendTuple(nil, []int64{1, 2})
	if !order.Less(a, b) {
		t.Error("(9,1) should precede (1,2) when field 1 is major")
	}
	if order.Less(b, a) {
		t.Error("ordering not antisymmetric")
	}
	if order.Less(a, a) {
		t.Error("irreflexivity violated")
	}
	if LessByFields(nil).Less(a, b) || LessByFields([]int{}).Less(b, a) {
		t.Error("an order over no fields holds every tuple equal")
	}
}

// TestLessByFieldsTotalOrderQuick checks that Order.Less is a strict total
// order over the listed fields that agrees with comparing them as signed
// int64s, major first, and ignores the fields not listed.
func TestLessByFieldsTotalOrderQuick(t *testing.T) {
	order := LessByFields([]int{2, 1, 0})
	ref := func(x, y [4]int64) bool {
		for _, f := range []int{2, 1, 0} {
			if x[f] != y[f] {
				return x[f] < y[f]
			}
		}
		return false
	}
	f := func(x, y [4]int64) bool {
		a := AppendTuple(nil, x[:])
		b := AppendTuple(nil, y[:])
		la, lb := order.Less(a, b), order.Less(b, a)
		if la != ref(x, y) || lb != ref(y, x) {
			return false
		}
		if x[0] == y[0] && x[1] == y[1] && x[2] == y[2] {
			return !la && !lb
		}
		return la != lb // exactly one direction for distinct keys
	}
	extremes := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for _, u := range extremes {
		for _, v := range extremes {
			if !f([4]int64{u, v, u, 0}, [4]int64{v, u, u, 1}) {
				t.Fatalf("disagrees with signed comparison at %d, %d", u, v)
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
