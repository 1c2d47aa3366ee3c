// Package extsort implements external merge sort over fixed-width records.
//
// The Cubetree organization depends on sorting everywhere: views are
// computed by sort-based aggregation, Cubetrees are packed from sorted
// runs, and bulk incremental updates merge a sorted delta with the sorted
// leaves. This sorter spills sorted runs to temporary files and k-way
// merges them, charging its file traffic to a pager.Stats as sequential
// page transfers, which is exactly what the paper's sort phase costs.
//
// Each buffer (every spilled run, and the whole input when it fits) is
// sorted by an exact LSD radix sort over the order's key fields, which
// calls no comparator: it sorts (key, index) pairs and then reads the
// records out through the indexes, so no record is swapped. The k-way run
// merge compares the key fields directly.
//
// The sorter is pipelined: a full buffer is handed to a background worker
// that sorts and spills run i while run i+1 fills, and a sort with many
// spilled runs merges them through a two-level tree whose first level runs
// on parallel workers. Neither changes the output order or the counted
// sequential-transfer totals — only when the work happens.
package extsort

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"

	"cubetree/internal/enc"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
)

// DefaultMemLimit is the default in-memory buffer size before a run spills.
const DefaultMemLimit = 16 << 20

// Iterator yields encoded records in sorted order. Implementations return
// io.EOF from Next after the last record.
type Iterator interface {
	// Next returns the next record. The returned slice is valid until the
	// following call to Next.
	Next() ([]byte, error)
	// Close releases resources held by the iterator.
	Close() error
}

// Sorter accumulates fixed-width records and produces them in sorted order.
// The zero value is not usable; call NewSorter.
//
// A Sorter is single-producer: AddTuple/Sort must be called from one
// goroutine. Internally it overlaps run generation with input: the full
// buffer is handed to a spill worker (sort + sequential write) while a
// recycled second buffer keeps filling, so in-memory sorting and disk
// writes hide behind the producer. Exactly two buffers ever exist, so peak
// memory is 2×memLimit, plus the radix sort's 32 bytes of scratch a record,
// once the input spills.
type Sorter struct {
	dir      string
	width    int
	order    enc.Order
	memLimit int
	stats    *pager.Stats
	span     *obs.Span

	buf   []byte
	count int64
	runs  []string // owned by the spill worker once it starts
	done  bool

	spillCh chan []byte // full buffers to the worker; unbuffered = depth-1 pipeline
	recycle chan []byte // emptied buffers back to the producer
	spillWG sync.WaitGroup

	errMu    sync.Mutex
	spillErr error
}

// NewSorter creates a sorter for records of the given width (bytes) in the
// given order. Spill files are created inside dir. memLimit bounds the
// in-memory buffer in bytes; values < width are raised to DefaultMemLimit,
// and a buffer never holds more than MaxUint32 records. stats may be nil.
func NewSorter(dir string, width int, order enc.Order, memLimit int, stats *pager.Stats) *Sorter {
	if memLimit < width {
		memLimit = DefaultMemLimit
	}
	memLimit = int(min(uint64(memLimit), uint64(width)*math.MaxUint32))
	if stats == nil {
		stats = &pager.Stats{}
	}
	return &Sorter{dir: dir, width: width, order: order, memLimit: memLimit, stats: stats}
}

// SetSpan attaches a tracing span under which the sorter records its spilled
// runs and final merge as child spans. A nil span (the default) disables
// tracing at no cost; set it before the first AddTuple.
func (s *Sorter) SetSpan(sp *obs.Span) { s.span = sp }

// AddTuple encodes vals and appends the record.
func (s *Sorter) AddTuple(vals []int64) error {
	if enc.TupleSize(len(vals)) != s.width {
		return fmt.Errorf("extsort: tuple of %d fields, want width %d", len(vals), s.width)
	}
	if s.done {
		return fmt.Errorf("extsort: Add after Sort")
	}
	if len(s.buf)+s.width > s.memLimit && len(s.buf) > 0 {
		if err := s.handOff(); err != nil {
			return err
		}
	}
	if len(s.buf)+s.width > cap(s.buf) {
		// Double up to memLimit: left to append, a large buffer grows
		// ≈ 1.25× at a time and is copied once per step.
		s.buf = append(getBuf(min(max(2*cap(s.buf), 64*s.width), s.memLimit)), s.buf...)
	}
	s.buf = enc.AppendTuple(s.buf, vals)
	s.count++
	return nil
}

func (s *Sorter) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.spillErr
}

func (s *Sorter) setErr(err error) {
	s.errMu.Lock()
	if s.spillErr == nil {
		s.spillErr = err
	}
	s.errMu.Unlock()
}

// handOff gives the full buffer to the spill worker and continues filling a
// recycled (or, once only, fresh) buffer. The first call starts the worker.
func (s *Sorter) handOff() error {
	if err := s.err(); err != nil {
		return err
	}
	if s.spillCh == nil {
		s.spillCh = make(chan []byte)
		s.recycle = make(chan []byte, 1)
		s.spillWG.Add(1)
		go s.spillWorker()
	}
	s.spillCh <- s.buf
	select {
	case b := <-s.recycle:
		s.buf = b[:0]
	default:
		// The worker is still busy with the previous buffer; fill a second
		// one. This branch runs at most once: from then on the two buffers
		// ping-pong through recycle.
		s.buf = getBuf(len(s.buf))
	}
	return nil
}

// bufPool and radixPool recycle record buffers and radix scratch from one
// sort to the next. A cube's views are sorted one after another, and a
// fresh buffer of megabytes is zeroed, and its pages faulted in, each time
// one is made.
var bufPool, radixPool sync.Pool

// getBuf returns an empty buffer with room for at least n bytes: a pooled
// one if it is large enough, else a new one.
func getBuf(n int) []byte {
	if p, ok := bufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]byte, 0, n)
}

func putBuf(b []byte) {
	if cap(b) > 0 {
		bufPool.Put(&b)
	}
}

func getRadix() *radix {
	if r, ok := radixPool.Get().(*radix); ok {
		return r
	}
	return new(radix)
}

// spillWorker sorts and writes each handed-off buffer as one run, reusing a
// single bufio.Writer and radix scratch across runs. Runs are recorded in
// hand-off order, so the run list is identical to a serial sorter's.
func (s *Sorter) spillWorker() {
	defer s.spillWG.Done()
	w := bufio.NewWriterSize(io.Discard, 1<<20)
	r := getRadix()
	defer radixPool.Put(r)
	for buf := range s.spillCh {
		if s.err() == nil {
			if path, err := s.writeRun(buf, w, r); err != nil {
				s.setErr(err)
			} else {
				s.runs = append(s.runs, path)
			}
		}
		select {
		case s.recycle <- buf:
		default:
			putBuf(buf) // the last run's: the producer is done
		}
	}
}

// writeRun sorts buf and spills its records, in sorted order, to a fresh
// temp file through the reused writer.
func (s *Sorter) writeRun(buf []byte, w *bufio.Writer, r *radix) (string, error) {
	sp := s.span.Child("spill-run")
	sp.SetInt("bytes", int64(len(buf)))
	sp.SetInt("records", int64(len(buf)/s.width))
	defer sp.End()
	order := r.sort(buf, s.width, s.order)
	f, err := os.CreateTemp(s.dir, "run-*.sort")
	if err != nil {
		return "", fmt.Errorf("extsort: spill: %w", err)
	}
	w.Reset(f)
	for _, ki := range order {
		off := int(ki.idx) * s.width
		if _, err := w.Write(buf[off : off+s.width]); err != nil {
			f.Close()
			return "", fmt.Errorf("extsort: spill write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("extsort: spill flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("extsort: spill close: %w", err)
	}
	s.stats.AddSequentialWrites(uint64((len(buf) + pager.PageSize - 1) / pager.PageSize))
	return f.Name(), nil
}

// Sort finishes input and returns an iterator over all records in order.
// The sorter cannot be reused afterwards.
func (s *Sorter) Sort() (Iterator, error) {
	if s.done {
		return nil, fmt.Errorf("extsort: Sort called twice")
	}
	s.done = true
	if s.spillCh == nil {
		sp := s.span.Child("sort-mem")
		sp.SetInt("records", s.count)
		r := getRadix()
		order := r.sort(s.buf, s.width, s.order)
		sp.End()
		it := &memIterator{buf: s.buf, width: s.width, order: order, r: r}
		s.buf = nil
		return it, nil
	}
	if len(s.buf) > 0 {
		s.spillCh <- s.buf
		s.buf = nil
	}
	close(s.spillCh)
	s.spillWG.Wait()
	select {
	case b := <-s.recycle:
		putBuf(b)
	default:
	}
	if err := s.err(); err != nil {
		return nil, err
	}
	// The merge is consumed lazily through the iterator, so its span stays
	// open until the caller closes the iterator.
	sp := s.span.Child("merge")
	sp.SetInt("runs", int64(len(s.runs)))
	return newRunMerger(s.runs, s.width, s.order, s.stats, sp)
}

// keyIndex is one record's radix key, over some of its key fields, and the
// record's index in its buffer.
type keyIndex struct {
	key uint64
	idx uint32
}

// radix is the scratch of an exact LSD radix sort over a record buffer. A
// sorter keeps one per buffer it sorts at a time and reuses it run to run.
type radix struct {
	from, to []keyIndex
	base, hi []int64 // per key field: the observed range
	bits     []int   // per key field: the bits of its observed range
}

// sort orders the records of buf by order and returns their indexes in
// that order; the records themselves do not move. It compares no records:
// each key field's digits are uint64(v) - uint64(lo) over its observed
// range, which is exact for any int64. The fields are packed, minor first,
// into as few 64-bit words as their ranges allow, and each word is sorted
// one byte at a time, least significant word first, skipping the bytes
// every record shares. A field that is constant costs nothing. The result
// is valid until the next call.
func (r *radix) sort(buf []byte, width int, order enc.Order) []keyIndex {
	n := len(buf) / width
	if cap(r.from) < n {
		r.from, r.to = make([]keyIndex, n), make([]keyIndex, n)
	}
	from, to := r.from[:n], r.to[:n]
	for i := range from {
		from[i].idx = uint32(i)
	}
	if n < 2 {
		return from
	}
	r.base, r.hi, r.bits = r.base[:0], r.hi[:0], r.bits[:0]
	for _, f := range order {
		r.base, r.hi = append(r.base, enc.Field(buf, f)), append(r.hi, enc.Field(buf, f))
	}
	for off := width; off < len(buf); off += width {
		for j, f := range order {
			v := enc.Field(buf[off:], f)
			r.base[j], r.hi[j] = min(r.base[j], v), max(r.hi[j], v)
		}
	}
	for j := range order {
		r.bits = append(r.bits, bits.Len64(uint64(r.hi[j])-uint64(r.base[j])))
	}
	for end, start := len(order), len(order); end > 0; end = start {
		wbits := 0
		for start > 0 && wbits+r.bits[start-1] <= 64 {
			start--
			wbits += r.bits[start]
		}
		if wbits == 0 {
			continue // every field of this word is constant
		}
		inOrder, prev := true, uint64(0)
		for i := range from {
			rec := buf[int(from[i].idx)*width:]
			var key uint64
			for j := start; j < end; j++ {
				key = key<<r.bits[j] | (uint64(enc.Field(rec, order[j])) - uint64(r.base[j]))
			}
			from[i].key = key
			inOrder, prev = inOrder && key >= prev, key
		}
		if inOrder {
			continue // a stable pass would move nothing
		}
		for shift := 0; shift < wbits; shift += 8 {
			var next [256]int
			for i := range from {
				next[byte(from[i].key>>shift)]++
			}
			if next[byte(from[0].key>>shift)] == n {
				continue // every key has the same digit here
			}
			pos := 0
			for d, c := range next {
				next[d], pos = pos, pos+c
			}
			for _, ki := range from {
				d := byte(ki.key >> shift)
				to[next[d]] = ki
				next[d]++
			}
			from, to = to, from
		}
	}
	return from
}

// memIterator reads an in-memory buffer through its sorted indexes. Close
// hands the buffer and the radix scratch on to the next sort.
type memIterator struct {
	buf   []byte
	width int
	order []keyIndex
	r     *radix
}

func (it *memIterator) Next() ([]byte, error) {
	if len(it.order) == 0 {
		return nil, io.EOF
	}
	off := int(it.order[0].idx) * it.width
	it.order = it.order[1:]
	return it.buf[off : off+it.width], nil
}

func (it *memIterator) Close() error {
	if it.r != nil {
		putBuf(it.buf)
		radixPool.Put(it.r)
		*it = memIterator{}
	}
	return nil
}

// source is one sorted input of a k-way merge: a spilled run, or one group
// worker's stream in the parallel merge.
type source interface {
	// next returns the following record, valid until the next call, or
	// io.EOF after the last one.
	next() ([]byte, error)
	close() error
}

// runReader streams one spilled run.
type runReader struct {
	f    *os.File
	r    *bufio.Reader
	rec  []byte
	path string
}

func openRun(path string, width int) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &runReader{f: f, r: bufio.NewReaderSize(f, 1<<20), rec: make([]byte, width), path: path}, nil
}

// next reads the following record. A run that ends inside a record was cut
// short, and that is an error: read as a clean end it would silently drop
// rows.
func (rr *runReader) next() ([]byte, error) {
	switch _, err := io.ReadFull(rr.r, rr.rec); err {
	case nil:
		return rr.rec, nil
	case io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("extsort: run %s ends inside a record: %w", rr.path, err)
	default:
		return nil, err
	}
}

func (rr *runReader) close() error {
	err := rr.f.Close()
	os.Remove(rr.path)
	return err
}

// mergeHead is a merge source with its current record.
type mergeHead struct {
	rec []byte
	src source
}

// mergeIterator k-way merges sorted sources through a min-heap on their
// current records, comparing the order's key fields directly. When closed
// it charges the bytes it delivered as sequential reads and ends its span.
type mergeIterator struct {
	heads []mergeHead
	order enc.Order
	stats *pager.Stats
	span  *obs.Span
	bytes int64
	out   []byte
	err   error
}

// newMergeIterator merges spilled runs.
func newMergeIterator(runs []string, width int, order enc.Order, stats *pager.Stats, span *obs.Span) (*mergeIterator, error) {
	srcs := make([]source, 0, len(runs))
	for _, path := range runs {
		rr, err := openRun(path, width)
		if err != nil {
			for _, src := range srcs {
				src.close()
			}
			span.End()
			return nil, fmt.Errorf("extsort: open run: %w", err)
		}
		srcs = append(srcs, rr)
	}
	return newMerge(srcs, width, order, stats, span)
}

// newMerge reads each source's first record, drops the empty ones and
// builds the heap. On error every source is closed.
func newMerge(srcs []source, width int, order enc.Order, stats *pager.Stats, span *obs.Span) (*mergeIterator, error) {
	m := &mergeIterator{order: order, stats: stats, span: span, out: make([]byte, width)}
	for i, src := range srcs {
		rec, err := src.next()
		if err == io.EOF {
			src.close()
			continue
		}
		if err != nil {
			for _, rest := range srcs[i:] {
				rest.close()
			}
			m.Close()
			return nil, fmt.Errorf("extsort: read run: %w", err)
		}
		m.heads = append(m.heads, mergeHead{rec: rec, src: src})
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *mergeIterator) Next() ([]byte, error) {
	if m.err != nil {
		return nil, m.err
	}
	if len(m.heads) == 0 {
		return nil, io.EOF
	}
	top := &m.heads[0]
	copy(m.out, top.rec)
	m.bytes += int64(len(m.out))
	switch rec, err := top.src.next(); err {
	case nil:
		top.rec = rec
	case io.EOF:
		top.src.close()
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	default:
		m.err = fmt.Errorf("extsort: merge read: %w", err)
		return nil, m.err
	}
	m.siftDown(0)
	return m.out, nil
}

func (m *mergeIterator) siftDown(i int) {
	h := m.heads
	for {
		min := i
		if l := 2*i + 1; l < len(h) && m.order.Less(h[l].rec, h[min].rec) {
			min = l
		}
		if r := 2*i + 2; r < len(h) && m.order.Less(h[r].rec, h[min].rec) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (m *mergeIterator) Close() error {
	for _, h := range m.heads {
		h.src.close()
	}
	m.heads = nil
	m.stats.AddSequentialReads(uint64((m.bytes + pager.PageSize - 1) / pager.PageSize))
	m.span.SetInt("records", m.bytes/int64(len(m.out)))
	m.span.End()
	m.bytes, m.span = 0, nil
	return nil
}

// Discard drains and closes it, returning the record count. Useful in tests
// and benchmarks.
func Discard(it Iterator) (int64, error) {
	defer it.Close()
	var n int64
	for {
		_, err := it.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
