package recordlayer

import (
	"container/list"
	"strconv"
	"sync"

	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/query"
)

// PlanCache is a bounded LRU cache of query plans keyed by query shape — the
// client-side "SQL PREPARE" idiom (Appendix C): planning happens once per
// query shape, and execution binds the immutable plan to each query's
// literals across stores and transactions. Safe for concurrent use.
type PlanCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type planEntry struct {
	key  string
	p    plan.Plan
	hits int64
}

// NewPlanCache creates a cache holding at most max plans (default 128 when
// max <= 0).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = 128
	}
	return &PlanCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// appendShapeKey appends to key the cache key of q's shape planned against a
// schema version, and q's literals to b (RecordQuery.AppendShape). The shape
// is canonical over types, filter, sort and projection with "?" for every
// literal, and the metadata version invalidates plans across schema
// evolution.
func appendShapeKey(key []byte, md *metadata.MetaData, q query.RecordQuery, b query.Bindings) ([]byte, query.Bindings) {
	key = strconv.AppendUint(append(key, 'v'), uint64(md.Version), 10)
	return q.AppendShape(append(key, '|'), b)
}

// Get returns the cached plan for key, marking it most recently used.
func (c *PlanCache) Get(key string) (plan.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found(c.items[key])
}

// getShape is Get for a key in a caller's buffer.
func (c *PlanCache) getShape(key []byte) (plan.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found(c.items[string(key)])
}

// found counts a lookup that found el, nil for a miss, and returns its plan.
func (c *PlanCache) found(el *list.Element) (plan.Plan, bool) {
	if el == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	e := el.Value.(*planEntry)
	e.hits++
	c.order.MoveToFront(el)
	return e.p, true
}

// Put inserts or refreshes a plan, evicting the least recently used entry
// when the cache is full.
func (c *PlanCache) Put(key string, p plan.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).p = p
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&planEntry{key: key, p: p})
	if c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
		c.evictions++
	}
}

// PlanCacheStats is a snapshot of cache effectiveness counters.
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	Size                    int
}

// Stats returns a snapshot of hit/miss/eviction counters and current size.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Size: c.order.Len()}
}

// PlanCacheEntry describes one cached plan for tooling (`rl plans`).
type PlanCacheEntry struct {
	// Fingerprint is the cache key: schema version + canonical query shape,
	// "?" in place of each literal.
	Fingerprint string
	// Plan is the cached shape plan's rendering, "?" in each slot.
	Plan string
	// Hits counts cache hits served by this entry.
	Hits int64
}

// Entries lists the cached plans from most to least recently used.
func (c *PlanCache) Entries() []PlanCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PlanCacheEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		out = append(out, PlanCacheEntry{Fingerprint: e.key, Plan: e.p.String(), Hits: e.hits})
	}
	return out
}
