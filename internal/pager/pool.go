package pager

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolExhausted is returned when every frame in the pool is pinned and a
// new page is requested. The pool first waits up to Config.ExhaustionWait
// for a concurrent Unpin before giving up. The error returned from
// Fetch/NewPage is an *ExhaustedError wrapping this sentinel, so callers
// match with errors.Is and recover the wait bound with errors.As.
var ErrPoolExhausted = errors.New("pager: buffer pool exhausted (all frames pinned)")

// ExhaustedError reports a failed frame allocation after the bounded
// exhaustion wait expired. Wait is how long the caller was held before the
// pool gave up — an admission layer can turn it into an honest Retry-After,
// since a client retrying sooner than one full wait bound will most likely
// hit the same pinned pool.
type ExhaustedError struct {
	// Wait is the duration the allocation waited before failing.
	Wait time.Duration
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("%v after waiting %v", ErrPoolExhausted, e.Wait.Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrPoolExhausted) hold.
func (e *ExhaustedError) Unwrap() error { return ErrPoolExhausted }

// DefaultExhaustionWait is the exhaustion wait bound used when
// Config.ExhaustionWait is zero. A transiently full pool (another goroutine
// about to unpin) should not fail the caller; a genuinely wedged one must
// not block it forever.
const DefaultExhaustionWait = 200 * time.Millisecond

// Config tunes a Pool beyond its capacity.
type Config struct {
	// ExhaustionWait bounds how long Fetch/NewPage waits for a concurrent
	// Unpin when every frame is pinned before failing with an
	// *ExhaustedError (default DefaultExhaustionWait). A server sizes this
	// against its latency budget: shorter sheds load faster, longer rides
	// out pin spikes.
	ExhaustionWait time.Duration
}

// exhaustedPoll caps one wait slice so the waiter re-attempts allocation
// periodically even if it raced with the unpin notification.
const exhaustedPoll = 10 * time.Millisecond

// Frame is a pinned in-memory copy of one page. Callers read and modify
// Data and must Unpin the frame when done, declaring whether they dirtied it.
type Frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	// prev and next link the frame into its shard's LRU ring while it is
	// unpinned; both are nil while it is pinned.
	prev, next *Frame
}

// ID returns the page id held by the frame.
func (fr *Frame) ID() PageID { return fr.id }

// Data returns the page bytes (length PageSize). The slice is valid only
// while the frame is pinned.
func (fr *Frame) Data() []byte { return fr.data }

// poolShard is one independently locked slice of the pool: its own frame
// map and LRU list. Pages map to shards by their low PageID bits, so a
// sequential scan round-robins across shards and shard-local LRU
// approximates global LRU.
type poolShard struct {
	mu     sync.Mutex
	frames map[PageID]*Frame
	// lru is the sentinel of a ring of the unpinned frames, linked through
	// the frames themselves so that pinning and unpinning allocate nothing:
	// lru.next is the most recently used, lru.prev the next to evict.
	lru       Frame
	evictable int // frames in the ring
}

func (sh *poolShard) lruPushFront(fr *Frame) {
	fr.prev, fr.next = &sh.lru, sh.lru.next
	fr.prev.next, fr.next.prev = fr, fr
	sh.evictable++
}

func (sh *poolShard) lruRemove(fr *Frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
	sh.evictable--
}

// Pool is an LRU buffer pool over one File. The pool is the only component
// that issues page reads and writes for its file, so buffer hits cost no
// counted I/O — reproducing the paper's observation that fewer, smaller trees
// raise the buffer hit ratio.
//
// The pool is sharded: frames are partitioned by PageID across power-of-two
// shards, each with its own mutex, map, and LRU list, so concurrent queries
// pin and unpin pages without funnelling through one lock. Capacity is a
// pool-wide budget (a shared atomic count of allocated frames), not a
// per-shard quota: a hot shard grows at the expense of cold ones, and a
// shard whose frames are all pinned steals an evictable frame from a
// sibling before reporting exhaustion.
//
// All methods are safe for concurrent use, but a single Frame must not be
// used from multiple goroutines simultaneously.
type Pool struct {
	file     *File
	capacity int
	shards   []poolShard
	mask     uint32

	// access, when set, observes every Fetch for page-level attribution
	// (e.g. charging leaf-run reads to the view that owns the run). The
	// default-nil pointer keeps the uninstrumented path at one atomic load.
	access atomic.Pointer[accessBox]

	// nframes counts frames allocated across all shards; it never exceeds
	// capacity.
	nframes atomic.Int64

	// exhaustionWait is the configured wait bound in nanoseconds (0 means
	// DefaultExhaustionWait). Atomic so SetExhaustionWait may retune a live
	// pool without racing in-flight fetches.
	exhaustionWait atomic.Int64

	// Exhaustion waiters: Unpin rotates unpinCh (close + replace) when a
	// frame becomes evictable and someone is waiting for one.
	waiters atomic.Int32
	waitMu  sync.Mutex
	unpinCh chan struct{}
}

// NewPool creates a buffer pool of the given capacity (in pages) over file
// with default tuning. Capacity must be at least 1.
func NewPool(file *File, capacity int) *Pool {
	return NewPoolConfig(file, capacity, Config{})
}

// NewPoolConfig creates a buffer pool with explicit tuning.
func NewPoolConfig(file *File, capacity int, cfg Config) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	p := newPool(file, capacity, shardCount(capacity))
	p.SetExhaustionWait(cfg.ExhaustionWait)
	return p
}

// SetExhaustionWait retunes the exhaustion wait bound on a live pool; d <= 0
// restores DefaultExhaustionWait. Safe to call concurrently with Fetch;
// in-flight waiters keep the bound they armed with.
func (p *Pool) SetExhaustionWait(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.exhaustionWait.Store(int64(d))
}

// exhaustedWait returns the effective wait bound.
func (p *Pool) exhaustedWait() time.Duration {
	if d := p.exhaustionWait.Load(); d > 0 {
		return time.Duration(d)
	}
	return DefaultExhaustionWait
}

// newPool builds a pool with an explicit power-of-two shard count (tests
// exercise multi-shard behaviour regardless of GOMAXPROCS through this).
func newPool(file *File, capacity, n int) *Pool {
	p := &Pool{
		file:     file,
		capacity: capacity,
		shards:   make([]poolShard, n),
		mask:     uint32(n - 1),
		unpinCh:  make(chan struct{}),
	}
	for i := range p.shards {
		p.shards[i].frames = make(map[PageID]*Frame)
		p.shards[i].lru.prev, p.shards[i].lru.next = &p.shards[i].lru, &p.shards[i].lru
	}
	return p
}

// shardCount picks a power-of-two shard count: enough for the machine's
// parallelism, but never so many that shards get starved of frames — tiny
// experiment pools (the paper's 3%-of-data setting) stay single-shard so
// their LRU behaviour and counted I/O match a global-LRU pool.
func shardCount(capacity int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	for n > 1 && capacity/n < 8 {
		n >>= 1
	}
	return n
}

// AccessObserver receives one callback per Fetch with the page id and
// whether it was served from the pool (hit) or read from disk (miss).
// Implementations must be safe for concurrent use and must not touch the
// pool (the callback runs on the Fetch path, outside the shard locks).
type AccessObserver interface {
	PageAccess(id PageID, hit bool)
}

// accessBox wraps the interface so the pool can swap it with one atomic
// pointer store.
type accessBox struct{ ob AccessObserver }

// SetAccessObserver installs (or, with nil, removes) the pool's page-access
// observer. Safe to call concurrently with Fetch; in-flight fetches may
// report to either the old or the new observer.
func (p *Pool) SetAccessObserver(ob AccessObserver) {
	if ob == nil {
		p.access.Store(nil)
		return
	}
	p.access.Store(&accessBox{ob: ob})
}

// File returns the underlying page file.
func (p *Pool) File() *File { return p.file }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Shards returns the number of independently locked pool shards.
func (p *Pool) Shards() int { return len(p.shards) }

func (p *Pool) shardIndex(id PageID) int { return int(uint32(id) & p.mask) }

// Fetch pins page id into the pool, reading it from disk on a miss.
func (p *Pool) Fetch(id PageID) (*Frame, error) {
	shIdx := p.shardIndex(id)
	sh := &p.shards[shIdx]
	var deadline time.Time
	for {
		sh.mu.Lock()
		if fr, ok := sh.frames[id]; ok {
			p.file.stats.recordPool(true)
			sh.pinLocked(fr)
			sh.mu.Unlock()
			if box := p.access.Load(); box != nil {
				box.ob.PageAccess(id, true)
			}
			return fr, nil
		}
		fr, err := p.frameFor(shIdx)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		if fr != nil {
			p.file.stats.recordPool(false)
			if err := p.file.ReadPage(id, fr.data); err != nil {
				p.nframes.Add(-1) // drop the unused frame
				sh.mu.Unlock()
				return nil, err
			}
			fr.id = id
			fr.pins = 1
			fr.dirty = false
			sh.frames[id] = fr
			sh.mu.Unlock()
			if box := p.access.Load(); box != nil {
				box.ob.PageAccess(id, false)
			}
			return fr, nil
		}
		sh.mu.Unlock()
		if err := p.waitUnpinned(&deadline); err != nil {
			return nil, err
		}
	}
}

// NewPage allocates a fresh page in the file and returns it pinned and
// zeroed. The frame is marked dirty so it will reach disk.
func (p *Pool) NewPage() (*Frame, error) {
	id, err := p.file.Allocate()
	if err != nil {
		return nil, err
	}
	shIdx := p.shardIndex(id)
	sh := &p.shards[shIdx]
	var deadline time.Time
	for {
		sh.mu.Lock()
		fr, err := p.frameFor(shIdx)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		if fr != nil {
			clear(fr.data)
			fr.id = id
			fr.pins = 1
			fr.dirty = true
			sh.frames[id] = fr
			sh.mu.Unlock()
			return fr, nil
		}
		sh.mu.Unlock()
		if err := p.waitUnpinned(&deadline); err != nil {
			return nil, err
		}
	}
}

// Unpin releases one pin on fr. If dirty is true the frame is marked for
// write-back before eviction.
func (p *Pool) Unpin(fr *Frame, dirty bool) {
	sh := &p.shards[p.shardIndex(fr.id)]
	sh.mu.Lock()
	if fr.pins <= 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("pager: unpin of unpinned page %d", fr.id))
	}
	fr.dirty = fr.dirty || dirty
	fr.pins--
	evictable := fr.pins == 0
	if evictable {
		sh.lruPushFront(fr)
	}
	sh.mu.Unlock()
	if evictable && p.waiters.Load() > 0 {
		p.waitMu.Lock()
		close(p.unpinCh)
		p.unpinCh = make(chan struct{})
		p.waitMu.Unlock()
	}
}

// waitUnpinned blocks until a frame is unpinned somewhere in the pool (or a
// short poll interval elapses, covering a notification race) and reports
// ErrPoolExhausted once the bounded wait expires. The first call arms the
// deadline and counts one wait episode; the time spent blocked is charged to
// Stats.PoolWaitTime so exhaustion stalls are visible in metrics, not just
// in tail latency.
func (p *Pool) waitUnpinned(deadline *time.Time) error {
	now := time.Now()
	bound := p.exhaustedWait()
	if deadline.IsZero() {
		*deadline = now.Add(bound)
		p.file.stats.recordPoolWait(0)
	} else if now.After(*deadline) {
		return &ExhaustedError{Wait: now.Sub(deadline.Add(-bound))}
	}
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	p.waitMu.Lock()
	ch := p.unpinCh
	p.waitMu.Unlock()
	wait := time.Until(*deadline)
	if wait > exhaustedPoll {
		wait = exhaustedPoll
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
	p.file.stats.poolWaitNanos.Add(uint64(time.Since(now)))
	return nil
}

// Flush writes every dirty frame back to disk. Pinned frames are flushed
// too but stay resident. Flush locks all shards (in index order) for the
// duration so it sees a consistent snapshot; frameFor never blocks on a
// sibling lock, so this cannot deadlock with a concurrent steal.
func (p *Pool) Flush() error {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	defer func() {
		for i := len(p.shards) - 1; i >= 0; i-- {
			p.shards[i].mu.Unlock()
		}
	}()
	// Write in ascending page order to give the disk sequential runs, as a
	// real database's background writer would.
	var dirty []*Frame
	for i := range p.shards {
		for _, fr := range p.shards[i].frames {
			if fr.dirty {
				dirty = append(dirty, fr)
			}
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
	for _, fr := range dirty {
		if err := p.file.WritePage(fr.id, fr.data); err != nil {
			return err
		}
		fr.dirty = false
	}
	return nil
}

// Close flushes the pool and closes the underlying file.
func (p *Pool) Close() error {
	if err := p.Flush(); err != nil {
		p.file.Close()
		return err
	}
	return p.file.Close()
}

func (sh *poolShard) pinLocked(fr *Frame) {
	if fr.pins == 0 && fr.next != nil {
		sh.lruRemove(fr)
	}
	fr.pins++
}

// frameFor returns an unused frame for shard shIdx, whose mutex the caller
// holds: a fresh allocation while the pool-wide budget has room, else an
// eviction from the shard's own LRU, else a steal from a sibling shard. A
// nil, nil return means every frame in the pool is currently pinned.
func (p *Pool) frameFor(shIdx int) (*Frame, error) {
	for {
		n := p.nframes.Load()
		if int(n) >= p.capacity {
			break
		}
		if p.nframes.CompareAndSwap(n, n+1) {
			return &Frame{data: make([]byte, PageSize)}, nil
		}
	}
	if fr, err := p.evictFrom(&p.shards[shIdx]); fr != nil || err != nil {
		return fr, err
	}
	// Own shard has nothing evictable; sweep the siblings once. TryLock
	// keeps the sweep deadlock-free (two shards stealing from each other
	// would otherwise deadlock) and bounded: a contended sibling is simply
	// skipped.
	for i := 1; i < len(p.shards); i++ {
		sib := &p.shards[(shIdx+i)&int(p.mask)]
		if !sib.mu.TryLock() {
			continue
		}
		fr, err := p.evictFrom(sib)
		sib.mu.Unlock()
		if fr != nil || err != nil {
			return fr, err
		}
	}
	return nil, nil
}

// ShardInfo is a point-in-time occupancy summary of one pool shard.
type ShardInfo struct {
	// Frames is the number of resident frames in the shard.
	Frames int `json:"frames"`
	// Pinned counts resident frames with at least one pin.
	Pinned int `json:"pinned"`
	// Evictable counts unpinned frames on the shard's LRU list.
	Evictable int `json:"evictable"`
}

// PoolInfo is a point-in-time occupancy summary of a whole pool, shaped for
// the /debug/warehouse endpoint.
type PoolInfo struct {
	Capacity int         `json:"capacity"`
	Frames   int         `json:"frames"`
	Pinned   int         `json:"pinned"`
	Shards   []ShardInfo `json:"shards"`
}

// Info reports the pool's current occupancy: total and per-shard frame and
// pin counts. Each shard is locked briefly in turn, so the totals are a
// near-consistent snapshot, adequate for monitoring.
func (p *Pool) Info() PoolInfo {
	info := PoolInfo{Capacity: p.capacity, Shards: make([]ShardInfo, len(p.shards))}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		si := ShardInfo{Frames: len(sh.frames), Evictable: sh.evictable}
		for _, fr := range sh.frames {
			if fr.pins > 0 {
				si.Pinned++
			}
		}
		sh.mu.Unlock()
		info.Shards[i] = si
		info.Frames += si.Frames
		info.Pinned += si.Pinned
	}
	return info
}

// evictFrom removes the least recently used unpinned frame from sh (whose
// mutex the caller holds), writing it back if dirty. Returns nil, nil when
// the shard has no evictable frame.
func (p *Pool) evictFrom(sh *poolShard) (*Frame, error) {
	fr := sh.lru.prev
	if fr == &sh.lru {
		return nil, nil
	}
	sh.lruRemove(fr)
	delete(sh.frames, fr.id)
	if fr.dirty {
		if err := p.file.WritePage(fr.id, fr.data); err != nil {
			p.nframes.Add(-1) // the frame is dropped with its failed write
			return nil, err
		}
		fr.dirty = false
	}
	return fr, nil
}
