package cube

import (
	"bytes"
	"io"
	"os"
	"sort"
	"testing"

	"cubetree/internal/enc"
	"cubetree/internal/lattice"
	"cubetree/internal/tpcd"
)

// referenceViewData is what a view's data file must hold, byte for byte:
// every fact projected on the view's attributes, sorted in pack order (last
// attribute major) by sort.Slice, equal keys folded.
func referenceViewData(t *testing.T, d *tpcd.Dataset, v lattice.View, schema lattice.Schema) []byte {
	t.Helper()
	arity := v.Arity()
	var tuples [][]int64
	for it := d.FactRows(); it.Next(); {
		tup := make([]int64, arity+schema.Len())
		for i, a := range v.Attrs {
			x, err := it.Value(a)
			if err != nil {
				t.Fatal(err)
			}
			tup[i] = x
		}
		schema.Init(tup[arity:], it.Fact().Quantity)
		tuples = append(tuples, tup)
	}
	sort.Slice(tuples, func(i, j int) bool {
		for k := arity - 1; k >= 0; k-- {
			if tuples[i][k] != tuples[j][k] {
				return tuples[i][k] < tuples[j][k]
			}
		}
		return false
	})
	var out []byte
	for i := 0; i < len(tuples); {
		cur := tuples[i]
		for i++; i < len(tuples) && equalInt64s(tuples[i][:arity], cur[:arity]); i++ {
			schema.Fold(cur[arity:], tuples[i][arity:])
		}
		out = enc.AppendTuple(out, cur)
	}
	return out
}

func equalInt64s(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewDataMatchesReference computes the paper's view set (the greedy
// selection of Figure 10) and both top-view replicas from a seeded SF 0.01
// fact stream, and holds every data file to the reference bytes: once with
// the default buffer, sorted in memory, and once with a buffer small
// enough that every sort spills and merges, with MIN and MAX stored too.
func TestViewDataMatchesReference(t *testing.T) {
	d := tpcd.New(tpcd.Params{SF: 0.01, Seed: 1998})
	part, supp, cust := tpcd.AttrPart, tpcd.AttrSupplier, tpcd.AttrCustomer
	views := viewsOf(
		[]lattice.Attr{part, supp, cust},
		[]lattice.Attr{part, supp},
		[]lattice.Attr{cust},
		[]lattice.Attr{supp},
		[]lattice.Attr{part},
		nil,
	)
	minMax, err := lattice.NewSchema(lattice.AggMin, lattice.AggMax)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {MemLimit: 64 << 10, Schema: minMax}} {
		dir := t.TempDir()
		res, err := Compute(dir, &factAdapter{it: d.FactRows()}, views, opts)
		if err != nil {
			t.Fatal(err)
		}
		top := res[views[0].Key()]
		all := []*ViewData{}
		for _, v := range views {
			all = append(all, res[v.Key()])
		}
		for _, order := range [][]lattice.Attr{{supp, cust, part}, {cust, part, supp}} {
			rep, err := Reorder(dir, top, order, opts)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rep)
		}
		for _, vd := range all {
			got, err := os.ReadFile(vd.Path)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceViewData(t, d, vd.View, vd.Schema)
			if !bytes.Equal(got, want) {
				t.Errorf("MemLimit %d: view %v: %d bytes differ from the %d reference bytes", opts.MemLimit, vd.View.Attrs, len(got), len(want))
			}
			if vd.Rows != int64(len(want)/vd.Width()) {
				t.Errorf("view %v: Rows = %d, want %d", vd.View.Attrs, vd.Rows, len(want)/vd.Width())
			}
		}
	}
}

// TestTruncatedViewDataFails cuts a view data file short by a few bytes:
// Iterate, TupleReader and a replica built from the file must fail rather
// than read it as a view with fewer rows.
func TestTruncatedViewDataFails(t *testing.T) {
	dir := t.TempDir()
	var tuples [][]int64
	for i := int64(0); i < 100; i++ {
		tuples = append(tuples, []int64{i % 10, i / 10, i, 1})
	}
	v := lattice.View{Attrs: []lattice.Attr{"partkey", "suppkey"}}
	vd, err := WriteTuples(dir, v, tuples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(vd.Path, vd.Bytes()-3); err != nil {
		t.Fatal(err)
	}

	n := 0
	if err := vd.Iterate(func([]int64) error { n++; return nil }); err == nil {
		t.Errorf("Iterate read a cut file as %d rows, want an error", n)
	}

	tr, err := vd.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n = 0
	for {
		_, err = tr.Next()
		if err != nil {
			break
		}
		n++
	}
	if err == io.EOF {
		t.Errorf("TupleReader read a cut file as %d rows, want an error", n)
	}

	if _, err := Reorder(dir, vd, []lattice.Attr{"suppkey", "partkey"}, Options{}); err == nil {
		t.Error("Reorder built a replica from a cut file")
	}
}
