package rtree

import (
	"fmt"
	"slices"
	"testing"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// packer is what the format tests drive: the Builder, or the v1 reference
// writer below.
type packer interface {
	BeginRun(arity int) error
	Add(coords, measures []int64) error
	EndRun() (RunInfo, error)
	Finish() (*Tree, error)
}

// v1Writer is the test-only reference writer of the retired row-major leaf
// layout: it hand-writes kindLeaf pages exactly as every pre-v2 release did
// and hands their childEntrys to Builder.Finish for the (format-neutral)
// index levels and meta page. The v1 read path in leafv1.go is compared
// against trees it produces; nothing outside this file can write v1.
type v1Writer struct {
	b   *Builder
	cur *pager.Frame
	n   int // entries on cur
}

// newPacker returns the v1 reference writer or the Builder.
func newPacker(tb testing.TB, pool *pager.Pool, dim int, opts Options, v1 bool) packer {
	tb.Helper()
	b, err := NewBuilder(pool, dim, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if v1 {
		return &v1Writer{b: b}
	}
	return b
}

func formatName(v1 bool) string {
	if v1 {
		return "v1"
	}
	return "v2"
}

func (w *v1Writer) BeginRun(arity int) error { return w.b.BeginRun(arity) }

// leafCap is the fixed point capacity of a v1 leaf of the run's arity.
func (w *v1Writer) leafCap() int {
	t := w.b.t
	c := (t.payload() - nodeHeaderSize) / t.leafEntrySize(w.b.arity)
	if t.fanout > 1 && c > t.fanout {
		c = t.fanout
	}
	return c
}

// Add appends one point; callers supply pack order (Validate checks it).
func (w *v1Writer) Add(coords, measures []int64) error {
	b := w.b
	if !b.inRun || len(coords) != b.arity || len(measures) != b.t.measures {
		return fmt.Errorf("v1Writer: bad point %v %v", coords, measures)
	}
	if w.cur == nil || w.n >= w.leafCap() {
		w.sealLeaf()
		fr, err := b.pool.NewPage()
		if err != nil {
			return err
		}
		initNode(fr.Data(), kindLeaf, byte(b.arity))
		w.cur, w.n = fr, 0
		if b.runFirst == pager.InvalidPage {
			b.runFirst = fr.ID()
		}
		b.runLast = fr.ID()
	}
	data := w.cur.Data()
	entry := data[nodeHeaderSize+w.n*b.t.leafEntrySize(b.arity):]
	enc.PutTuple(entry, coords)
	enc.PutTuple(entry[enc.TupleSize(b.arity):], measures)
	w.n++
	setNodeCount(data, w.n)
	b.runPts++
	b.t.count++
	return nil
}

// sealLeaf unpins the current leaf and records its MBR for the index levels.
func (w *v1Writer) sealLeaf() {
	if w.cur == nil {
		return
	}
	b := w.b
	data := w.cur.Data()
	lo := make([]int64, b.t.dim)
	hi := make([]int64, b.t.dim)
	coords := make([]int64, b.t.dim)
	meas := make([]int64, b.t.measures)
	for i := 0; i < w.n; i++ {
		b.t.leafPoint(data, i, coords, meas)
		for j, c := range coords {
			if i == 0 || c < lo[j] {
				lo[j] = c
			}
			if i == 0 || c > hi[j] {
				hi[j] = c
			}
		}
	}
	b.leaves = append(b.leaves, childEntry{lo: lo, hi: hi, page: w.cur.ID()})
	b.t.leafHi = w.cur.ID()
	b.pool.Unpin(w.cur, true)
	w.cur, w.n = nil, 0
}

func (w *v1Writer) EndRun() (RunInfo, error) {
	w.sealLeaf()
	return w.b.EndRun() // nothing buffered: records the run placement only
}

func (w *v1Writer) Finish() (*Tree, error) { return w.b.Finish() }

// searchAll collects every point of tree inside [lo, hi] as coords+measures.
func searchAll(t *testing.T, tree *Tree, lo, hi []int64) [][]int64 {
	t.Helper()
	var out [][]int64
	if err := tree.Search(lo, hi, func(c, m []int64) error {
		out = append(out, append(append([]int64(nil), c...), m...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRefreshMigratesV1: merge-packing a v1 tree — with a delta that
// collides and extends, and with an empty one — is the only migration there
// is: the output holds no v1 leaf, validates, and answers every search
// exactly as a tree packed from the reference point set.
func TestRefreshMigratesV1(t *testing.T) {
	deltas := map[string]*SlicePoints{
		"delta": {
			Coords:   [][]int64{{50, 1}, {101, 1}, {7, 3}},
			Measures: [][]int64{{5, 1}, {7, 1}, {9, 1}},
		},
		"empty": {},
	}
	for name, delta := range deltas {
		t.Run(name, func(t *testing.T) {
			// Reference: the merged point set, folded by hand.
			ref := map[[2]int64][2]int64{}
			old := newPacker(t, newPool(t, 64), 2, Options{Fanout: 8}, true)
			old.BeginRun(2)
			for y := int64(1); y <= 2; y++ {
				for x := int64(1); x <= 100; x++ {
					if err := old.Add([]int64{x, y}, []int64{x, 1}); err != nil {
						t.Fatal(err)
					}
					ref[[2]int64{x, y}] = [2]int64{x, 1}
				}
			}
			old.EndRun()
			oldTree, err := old.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if info, err := oldTree.ScrubLeaves(); err != nil || info.V1Leaves == 0 || info.V2Leaves != 0 {
				t.Fatalf("old tree scrub = %+v, %v; want v1 leaves only", info, err)
			}
			for i, c := range delta.Coords {
				k := [2]int64{c[0], c[1]}
				ref[k] = [2]int64{ref[k][0] + delta.Measures[i][0], ref[k][1] + delta.Measures[i][1]}
			}

			nb, _ := NewBuilder(newPool(t, 64), 2, Options{Fanout: 8})
			if err := nb.BeginRun(2); err != nil {
				t.Fatal(err)
			}
			if err := MergeRun(nb, 2, oldTree.RunIterator(oldTree.Runs()[0]), delta, AddMeasures); err != nil {
				t.Fatal(err)
			}
			if _, err := nb.EndRun(); err != nil {
				t.Fatal(err)
			}
			merged, err := nb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			info, err := merged.ScrubLeaves()
			if err != nil {
				t.Fatal(err)
			}
			if info.V1Leaves != 0 || info.V2Leaves == 0 || info.Points != int64(len(ref)) {
				t.Fatalf("merged scrub = %+v; want %d points in v2 leaves only", info, len(ref))
			}
			if err := merged.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, rc := range [][2][]int64{
				{{0, 0}, {200, 200}}, {{50, 1}, {50, 1}}, {{101, 1}, {101, 1}},
				{{1, 2}, {100, 3}}, {{40, 1}, {60, 2}}, {{7, 3}, {7, 3}},
			} {
				var want [][]int64
				for k, m := range ref {
					if k[0] >= rc[0][0] && k[0] <= rc[1][0] && k[1] >= rc[0][1] && k[1] <= rc[1][1] {
						want = append(want, []int64{k[0], k[1], m[0], m[1]})
					}
				}
				slices.SortFunc(want, func(a, b []int64) int {
					if packLess(a[:2], b[:2]) {
						return -1
					}
					return 1
				})
				got := searchAll(t, merged, rc[0], rc[1])
				if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
					t.Fatalf("search %v: got %v, want %v", rc, got, want)
				}
			}
		})
	}
}
