package rtree

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// packer is what the format tests drive: the Builder, or the v2 reference
// writer below.
type packer interface {
	BeginRun(arity int) error
	Add(coords, measures []int64) error
	EndRun() (RunInfo, error)
	Finish() (*Tree, error)
}

// v2Writer is the test-only reference writer of the read-only predecessor
// layout: it hand-writes kindLeafV2 pages — a coordinate-only directory,
// packed coordinate columns, then raw little-endian measures, measure-major —
// exactly as every v2 release did, and hands their childEntrys to
// Builder.Finish for the (format-neutral) index levels and meta page. The v2
// read path is compared against trees it produces; nothing outside this file
// can write v2.
type v2Writer struct {
	b    *Builder
	cols []enc.ColumnBuilder // the open leaf's coordinate columns
	meas [][]int64           // the open leaf's measures, row by row
}

// newPacker returns the v2 reference writer or the Builder.
func newPacker(tb testing.TB, pool *pager.Pool, dim int, opts Options, v2 bool) packer {
	tb.Helper()
	b, err := NewBuilder(pool, dim, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if v2 {
		return &v2Writer{b: b}
	}
	return b
}

func formatName(v2 bool) string {
	if v2 {
		return "v2"
	}
	return "v3"
}

func (w *v2Writer) BeginRun(arity int) error {
	if err := w.b.BeginRun(arity); err != nil {
		return err
	}
	w.cols = make([]enc.ColumnBuilder, arity)
	w.meas = w.meas[:0]
	return nil
}

// size is the page bytes the open leaf needs as a v2 leaf.
func (w *v2Writer) size() int {
	size := nodeHeaderSize + len(w.cols)*colDescSize + len(w.meas)*w.b.t.measures*enc.FieldSize
	for j := range w.cols {
		size += w.cols[j].EncodedBytes()
	}
	return size
}

func (w *v2Writer) push(coords, measures []int64) {
	for j, v := range coords {
		w.cols[j].Append(v)
	}
	w.meas = append(w.meas, slices.Clone(measures))
}

// Add appends one point; callers supply pack order (Validate checks it).
func (w *v2Writer) Add(coords, measures []int64) error {
	b := w.b
	if !b.inRun || len(coords) != b.arity || len(measures) != b.t.measures {
		return fmt.Errorf("v2Writer: bad point %v %v", coords, measures)
	}
	w.push(coords, measures)
	if len(w.meas) > b.leafCap || w.size() > b.t.payload() {
		for j := range w.cols {
			w.cols[j].PopLast()
		}
		w.meas = w.meas[:len(w.meas)-1]
		if err := w.seal(); err != nil {
			return err
		}
		w.push(coords, measures)
	}
	b.runPts++
	b.t.count++
	return nil
}

// seal writes the open leaf as one v2 page and records its MBR for the index
// levels.
func (w *v2Writer) seal() error {
	if len(w.meas) == 0 {
		return nil
	}
	b := w.b
	fr, err := b.pool.NewPage()
	if err != nil {
		return err
	}
	lo := make([]int64, b.t.dim)
	hi := make([]int64, b.t.dim)
	for j := range w.cols {
		lo[j], hi[j] = w.cols[j].Min(), w.cols[j].Max()
	}
	encodeV2Leaf(fr.Data(), w.cols, w.meas)
	for j := range w.cols {
		w.cols[j].Reset()
	}
	w.meas = w.meas[:0]
	b.leaves = append(b.leaves, childEntry{lo: lo, hi: hi, page: fr.ID()})
	b.t.leafHi = fr.ID()
	if b.runFirst == pager.InvalidPage {
		b.runFirst = fr.ID()
	}
	b.runLast = fr.ID()
	b.pool.Unpin(fr, true)
	return nil
}

// encodeV2Leaf writes packed coordinate columns and row-major measures as
// one v2 leaf into zeroed page payload b.
func encodeV2Leaf(b []byte, cols []enc.ColumnBuilder, meas [][]int64) {
	initNode(b, kindLeafV2, byte(len(cols)))
	setNodeCount(b, len(meas))
	off := nodeHeaderSize + len(cols)*colDescSize
	for j := range cols {
		c := &cols[j]
		d := nodeHeaderSize + j*colDescSize
		binary.LittleEndian.PutUint64(b[d:], uint64(c.Min()))
		binary.LittleEndian.PutUint64(b[d+8:], uint64(c.Max()))
		b[d+16] = byte(c.Width())
		c.Encode(b[off : off+c.EncodedBytes()])
		off += c.EncodedBytes()
	}
	for m := 0; len(meas) > 0 && m < len(meas[0]); m++ {
		for _, row := range meas {
			enc.PutField(b[off:], 0, row[m])
			off += enc.FieldSize
		}
	}
}

func (w *v2Writer) EndRun() (RunInfo, error) {
	if err := w.seal(); err != nil {
		return RunInfo{}, err
	}
	return w.b.EndRun() // nothing buffered: records the run placement only
}

func (w *v2Writer) Finish() (*Tree, error) { return w.b.Finish() }

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

// TestRefreshMigratesV2: merge-packing a v2 tree — with a delta that
// collides and extends, and with an empty one — is the only migration there
// is: the output holds no v2 leaf, passes the scrub (measure zone maps
// included), validates, and answers every search exactly as a tree packed
// from the reference point set.
func TestRefreshMigratesV2(t *testing.T) {
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
			if info, err := oldTree.ScrubLeaves(); err != nil || info.V2Leaves == 0 || info.V3Leaves != 0 {
				t.Fatalf("old tree scrub = %+v, %v; want v2 leaves only", info, err)
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
			if info.V2Leaves != 0 || info.V3Leaves == 0 || info.Points != int64(len(ref)) {
				t.Fatalf("merged scrub = %+v; want %d points in v3 leaves only", info, len(ref))
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
