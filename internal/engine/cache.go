package engine

import (
	"container/list"
	"sync"

	"fx10/internal/constraints"
	"fx10/internal/syntax"
)

// cacheKey identifies an analysis up to result equality: two requests
// with the same key are guaranteed the same solution, because the
// program text determines the constraint system and (Theorem 5) the
// system determines its least solution. The key is the program's
// content hash (sha256 of the printed form — canonical and
// independent of which *syntax.Program pointer the caller holds,
// memoized on the Program so repeated lookups don't re-walk the AST)
// plus the mode. It names no strategy: a cache belongs to one Engine,
// and an Engine solves with one strategy.
type cacheKey struct {
	program syntax.ProgramHash
	mode    constraints.Mode
}

// resultCache is a mutex-guarded LRU keyed by cacheKey, bounded both
// in entries and in the bytes its results retain (Result.retainedBytes,
// plus the encoded report once Encoded fills it): a put or a charge
// evicts least recently used entries until both bounds hold, except
// that the last entry always stays. An entry is the sealed *Result of
// the run that populated it, E(main).M and that run's Stats included;
// nothing but its once-filled report slot is written once stored, so
// a hit copies it and nothing is re-extracted per request. The corpus
// pool and the daemon's handlers hit it from many goroutines; a plain
// map with a lock is enough because a lookup holds the lock only for a
// map access and a list move.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int
	bytes    int        // cacheEntry.bytes summed over entries
	order    *list.List // front = most recently used; values are cacheKey
	entries  map[cacheKey]*cacheEntry
}

type cacheEntry struct {
	val   *Result
	elem  *list.Element
	bytes int // retainedBytes, plus the encoded report once charged
}

func newResultCache(capacity, maxBytes int) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[cacheKey]*cacheEntry),
	}
}

func (c *resultCache) get(k cacheKey) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e.elem)
	return e.val, true
}

func (c *resultCache) put(k cacheKey, v *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		// Concurrent workers may solve the same program twice; the
		// solutions are identical (Theorem 5), keep the first.
		c.order.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{val: v, elem: c.order.PushFront(k), bytes: v.retainedBytes()}
	c.entries[k] = e
	c.bytes += e.bytes
	c.evict()
}

// charge adds n encoded-report bytes to the entry for k if that entry
// still holds the result whose slot was filled, then evicts least
// recently used entries while the cache is over its bounds.
func (c *resultCache) charge(k cacheKey, slot *encodedReport, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.val.report != slot {
		return
	}
	e.bytes += n
	c.bytes += n
	c.evict()
}

// evict drops least recently used entries until both bounds hold or
// one entry is left. The caller holds mu.
func (c *resultCache) evict() {
	for len(c.entries) > c.cap || (c.bytes > c.maxBytes && len(c.entries) > 1) {
		oldest := c.order.Remove(c.order.Back()).(cacheKey)
		c.bytes -= c.entries[oldest].bytes
		delete(c.entries, oldest)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
