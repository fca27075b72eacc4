package query

// The statement cache: a sharded LRU from normalized statement text to
// the one PreparedQuery for that text. Engine.Prepare consults it before
// lexing, and Engine.Execute is Prepare plus an execution, so ad hoc
// text, prepared statements and parameterized requests all share one
// parse per text. It caches the parsed template only: every execution
// plans afresh against the tables, registries and statistics of that
// moment, so no commit, re-registration or reshard has to evict or
// re-key anything. Sharding keeps the serving path scalable: concurrent
// queries hash to different shards and never contend on one mutex.

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// planCacheShards is the shard count; a power of two well above typical
// core counts so lock contention stays negligible.
const planCacheShards = 16

// defaultPlanCacheSize is the default total statement capacity.
const defaultPlanCacheSize = 512

// CacheStats is a snapshot of statement-cache effectiveness, exposed
// through Engine.CacheStats and the simqd /stats endpoint: Hits and
// Misses count text lookups by Engine.Prepare.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

type planCache struct {
	capacity int // total across shards
	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
	shards   [planCacheShards]planShard
}

type planShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used
	items map[string]*list.Element
}

type planEntry struct {
	key string
	pq  *PreparedQuery
}

func newPlanCache(capacity int) *planCache {
	c := &planCache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

func (c *planCache) shard(key string) *planShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%planCacheShards]
}

// shardCapacity spreads the total capacity across shards (at least one
// entry each so a tiny capacity still caches something).
func (c *planCache) shardCapacity() int {
	per := c.capacity / planCacheShards
	if per < 1 {
		per = 1
	}
	return per
}

// get returns the cached statement and promotes it to most recently
// used.
func (c *planCache) get(key string) (*PreparedQuery, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var pq *PreparedQuery
	if ok {
		s.lru.MoveToFront(el)
		pq = el.Value.(*planEntry).pq
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		mPlanCacheMiss.Inc()
		return nil, false
	}
	c.hits.Add(1)
	mPlanCacheHit.Inc()
	return pq, true
}

// put caches pq under key, evicting the least recently used entry of the
// shard at capacity, and returns the cached statement. When a concurrent
// miss has already cached one, that first statement stays and is
// returned, so one text has one PreparedQuery.
func (c *planCache) put(key string, pq *PreparedQuery) *PreparedQuery {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*planEntry).pq
	}
	for s.lru.Len() >= c.shardCapacity() {
		last := s.lru.Back()
		if last == nil {
			break
		}
		s.lru.Remove(last)
		delete(s.items, last.Value.(*planEntry).key)
		c.evicted.Add(1)
		mPlanCacheEvict.Inc()
	}
	s.items[key] = s.lru.PushFront(&planEntry{key: key, pq: pq})
	return pq
}

// Stats snapshots the counters.
func (c *planCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
		Capacity:  c.capacity,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}
