package extsort

import (
	"io"
	"runtime"
	"sync"

	"cubetree/internal/enc"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
)

// Parallel merge: when a sort spilled enough runs and the machine has spare
// cores, the final k-way merge runs as a two-level tree. The runs are
// partitioned into G groups; a worker per group merges its runs with a
// mergeIterator and streams record blocks over a channel, and the consumer
// merges the G sorted streams, record at a time, with another. The output
// order is the same total order a single k-way merge produces (ties between
// equal keys are unspecified in both), and the counted sequential-transfer
// total is identical: the consumer charges exactly the bytes it emitted, and
// the group iterators charge nothing.

const (
	// parallelMergeMinGroups is the smallest worthwhile merge-tree fan-in.
	parallelMergeMinGroups = 2
	// mergeBlockRecords is how many records a group worker batches per
	// channel send; large enough to amortize channel overhead, small enough
	// to keep the pipeline's memory footprint trivial.
	mergeBlockRecords = 512
)

// newRunMerger merges spilled runs, splitting the merge across workers when
// there are enough runs and cores for the tree to pay off.
func newRunMerger(runs []string, width int, order enc.Order, stats *pager.Stats, span *obs.Span) (Iterator, error) {
	g := mergeGroups(len(runs))
	if g < parallelMergeMinGroups {
		return newMergeIterator(runs, width, order, stats, span)
	}
	return newParallelMerge(runs, width, order, stats, span, g)
}

// mergeGroups picks the merge-tree fan-in: one group per core up to 8, and
// never fewer than two runs per group (below that the tree is pure overhead).
func mergeGroups(nruns int) int { return min(runtime.GOMAXPROCS(0), 8, nruns/2) }

// mergeBlock is one batch of records from a group worker, or its error.
type mergeBlock struct {
	data []byte
	err  error
}

// groupStream is the consumer's view of one group worker's sorted output:
// a merge source that hands out the records of one block after another.
type groupStream struct {
	ch      chan mergeBlock
	recycle chan []byte // consumed blocks back to the worker
	cur     []byte      // current block; nil before the first receive
	off     int         // offset of the current record in cur
	width   int
}

func (st *groupStream) next() ([]byte, error) {
	if st.cur != nil {
		st.off += st.width
		if st.off < len(st.cur) {
			return st.cur[st.off : st.off+st.width], nil
		}
		select {
		case st.recycle <- st.cur:
		default:
		}
		st.cur = nil
	}
	blk, ok := <-st.ch
	if !ok {
		return nil, io.EOF
	}
	if blk.err != nil {
		return nil, blk.err
	}
	st.cur, st.off = blk.data, 0
	return st.cur[:st.width], nil
}

// close is a no-op: the worker owns the run files and releases them when
// the parallel merge is closed.
func (st *groupStream) close() error { return nil }

// parallelMerge heap-merges the streams of G group workers with the same
// mergeIterator that merges runs. It is single-consumer, like every
// Iterator in this package.
type parallelMerge struct {
	*mergeIterator
	cancel chan struct{}
	wg     sync.WaitGroup
	closed bool
}

func newParallelMerge(runs []string, width int, order enc.Order, stats *pager.Stats, span *obs.Span, g int) (Iterator, error) {
	pm := &parallelMerge{cancel: make(chan struct{})}
	stop := func() {
		close(pm.cancel)
		pm.wg.Wait()
	}
	var streams []source
	for i := 0; i < g; i++ {
		var sub []string
		for j := i; j < len(runs); j += g {
			sub = append(sub, runs[j])
		}
		// The group iterator gets a throwaway Stats: the consumer charges
		// the real one for exactly the bytes it emits, which keeps the
		// counted total byte-for-byte identical to a serial merge.
		m, err := newMergeIterator(sub, width, order, &pager.Stats{}, nil)
		if err != nil {
			stop()
			span.End()
			return nil, err
		}
		st := &groupStream{ch: make(chan mergeBlock, 1), recycle: make(chan []byte, 2), width: width}
		streams = append(streams, st)
		pm.wg.Add(1)
		go pm.feed(m, st)
	}
	m, err := newMerge(streams, width, order, stats, span)
	if err != nil {
		stop()
		return nil, err
	}
	pm.mergeIterator = m
	return pm, nil
}

// feed merges one group of runs and streams the records to the consumer in
// blocks. It owns m and closes it (run files are removed) on the way out.
func (pm *parallelMerge) feed(m *mergeIterator, st *groupStream) {
	defer pm.wg.Done()
	defer m.Close()
	defer close(st.ch)
	for {
		var blk []byte
		select {
		case b := <-st.recycle:
			blk = b[:0]
		default:
			blk = make([]byte, 0, mergeBlockRecords*st.width)
		}
		for len(blk) < mergeBlockRecords*st.width {
			rec, err := m.Next()
			if err == io.EOF {
				if len(blk) > 0 {
					select {
					case st.ch <- mergeBlock{data: blk}:
					case <-pm.cancel:
					}
				}
				return
			}
			if err != nil {
				select {
				case st.ch <- mergeBlock{err: err}:
				case <-pm.cancel:
				}
				return
			}
			blk = append(blk, rec...)
		}
		select {
		case st.ch <- mergeBlock{data: blk}:
		case <-pm.cancel:
			return
		}
	}
}

// Close stops the group workers, waits for them to release their run files,
// and charges the records actually delivered as sequential page reads.
func (pm *parallelMerge) Close() error {
	if pm.closed {
		return nil
	}
	pm.closed = true
	close(pm.cancel)
	pm.wg.Wait()
	return pm.mergeIterator.Close()
}
