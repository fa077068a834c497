package engine

import (
	"container/list"
	"crypto/sha256"
	"fmt"
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
// plus the mode and the strategy name (strategies agree on valuations
// but report different metrics, which Stats exposes, so they must not
// share entries).
type cacheKey struct {
	program  [sha256.Size]byte
	mode     constraints.Mode
	strategy string
}

func keyFor(p *syntax.Program, mode constraints.Mode, strategy string) cacheKey {
	return cacheKey{
		program:  p.Hash(),
		mode:     mode,
		strategy: strategy,
	}
}

func (k cacheKey) String() string {
	return fmt.Sprintf("%x/%v/%s", k.program[:6], k.mode, k.strategy)
}

// cached is the immutable core of one analysis, E(main).M included.
// A hit shares it with every other Result served from the entry;
// nothing is re-extracted per request.
type cached struct {
	core  pipelineCore
	stats Stats // stage durations and counters of the populating run
}

// resultCache is a mutex-guarded LRU keyed by cacheKey. The corpus
// pool hits it from many goroutines; a plain map with a lock is
// enough because entries are large (a solved system) and lookups are
// rare relative to solving.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are cacheKey
	entries map[cacheKey]*cacheEntry
}

type cacheEntry struct {
	val  cached
	elem *list.Element
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[cacheKey]*cacheEntry),
	}
}

func (c *resultCache) get(k cacheKey) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return cached{}, false
	}
	c.order.MoveToFront(e.elem)
	return e.val, true
}

func (c *resultCache) put(k cacheKey, v cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		// Concurrent workers may solve the same program twice; the
		// solutions are identical (Theorem 5), keep the first.
		c.order.MoveToFront(e.elem)
		return
	}
	c.entries[k] = &cacheEntry{val: v, elem: c.order.PushFront(k)}
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(cacheKey))
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
