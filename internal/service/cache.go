package service

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Cache failpoints (see internal/fault): cache.get forces a miss on a key
// that is present (exercising the recompute path against the cached truth);
// cache.put drops an insert (a completed result that never becomes
// shareable — followers must still get their copy via the job itself).
var (
	fpCacheGet = fault.Register(fault.SiteCacheGet)
	fpCachePut = fault.Register(fault.SiteCachePut)
)

// resultCache is the content-addressed result cache: completed Results
// keyed by the job cache key (sim.Config.Fingerprint plus the observability
// variant, see CacheKey). Entries are immutable — the simulator produces a
// fresh Result per run and nobody mutates it afterwards — so hits share the
// pointer. Bounded LRU, optionally write-through to a durableStore.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	m         map[string]*list.Element
	lru       *list.List // front = most recently used
	store     *durableStore
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	res *sim.Result
}

func newResultCache(capacity int, store *durableStore) *resultCache {
	return &resultCache{cap: capacity, m: map[string]*list.Element{}, lru: list.New(), store: store}
}

// get returns the cached Result for key, bumping its recency.
func (c *resultCache) get(key string) (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok || fpCacheGet.Fire() {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// peek returns the entry for key without counters, recency, or failpoints —
// the cluster peer-fetch read path, invisible to cache stats.
func (c *resultCache) peek(key string) (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).res, true
}

// keys returns every cached key, sorted — the anti-entropy digest source.
func (c *resultCache) keys() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// put stores res under key, evicting the least recently used entry over
// capacity. Writes through to the durable store when one is attached.
func (c *resultCache) put(key string, res *sim.Result) {
	if fpCachePut.Fire() {
		return
	}
	c.insert(key, res, true)
}

// seed is put for boot-time durable loads: it fills the in-memory cache
// without echoing the entry back to the disk it just came from.
func (c *resultCache) seed(key string, res *sim.Result) {
	c.insert(key, res, false)
}

func (c *resultCache) insert(key string, res *sim.Result, persist bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
	} else {
		c.m[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	}
	if persist && c.store != nil {
		c.store.persist(key, res)
	}
	//simlint:leakok each iteration evicts one entry, strictly shrinking the list
	for c.cap > 0 && c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		evicted := back.Value.(*cacheEntry).key
		delete(c.m, evicted)
		c.evictions++
		if c.store != nil {
			c.store.remove(evicted)
		}
	}
}

// stats returns hit/miss/eviction counters and the current entry count.
func (c *resultCache) stats() (hits, misses, evictions uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.lru.Len()
}
