package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cached statement result. The generation is part
// of the key, so the warehouse's atomic generation swap invalidates every
// cached answer for free: post-refresh requests compute keys under the new
// generation and miss, while stale entries age out of the LRU.
type cacheKey struct {
	generation int
	statement  string // canonical form: projection + query + limit
}

// resultCache is a mutex-guarded LRU of encoded statement answers: each
// value is the JSON fragment appendResult wrote, so a hit copies bytes and
// formats nothing. Values are immutable once put and shared; callers must
// not mutate what get returns. Memory is bounded by entries × answer size.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
}

type cacheEntry struct {
	key  cacheKey
	frag []byte
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil // nil cache = caching disabled; methods are nil-safe
	}
	return &resultCache{max: max, ll: list.New(), m: map[cacheKey]*list.Element{}}
}

func (c *resultCache) get(k cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).frag, true
}

func (c *resultCache) put(k cacheKey, frag []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).frag = frag
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, frag: frag})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
}

// len reports the number of resident entries.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
