package cube

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"cubetree/internal/enc"
	"cubetree/internal/pager"
)

// TupleReader is a pull-based reader over a ViewData file, used where a
// push-based Iterate does not fit (e.g. merge-packing two streams).
type TupleReader struct {
	f      *os.File
	r      *bufio.Reader
	width  int
	fields int
	buf    []byte
	tuple  []int64
	bytes  int64
	stats  *pager.Stats
}

// Open returns a reader positioned at the first tuple.
func (vd *ViewData) Open() (*TupleReader, error) {
	f, err := os.Open(vd.Path)
	if err != nil {
		return nil, fmt.Errorf("cube: open view data: %w", err)
	}
	return &TupleReader{
		f:      f,
		r:      bufio.NewReaderSize(f, 1<<20),
		width:  vd.Width(),
		fields: vd.Fields(),
		buf:    make([]byte, vd.Width()),
		tuple:  make([]int64, vd.Fields()),
		stats:  vd.stats,
	}, nil
}

// Next returns the next tuple, or io.EOF after the last one. The returned
// slice is reused between calls. A file that ends inside a tuple was cut
// short, and that is an error, not a shorter view.
func (tr *TupleReader) Next() ([]int64, error) {
	_, err := io.ReadFull(tr.r, tr.buf)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("cube: read view data %s: %w", tr.f.Name(), err)
	}
	tr.bytes += int64(tr.width)
	for i := range tr.tuple {
		tr.tuple[i] = enc.Field(tr.buf, i)
	}
	return tr.tuple, nil
}

// Close releases the reader and charges its traffic as sequential reads.
func (tr *TupleReader) Close() error {
	if tr.stats != nil {
		tr.stats.AddSequentialReads(uint64((tr.bytes + pager.PageSize - 1) / pager.PageSize))
	}
	return tr.f.Close()
}
