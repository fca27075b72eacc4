package query

// A sharded LRU cache from normalized statement text to (parsed query,
// planner decision). Engine.Execute consults it before lexing, so a hot
// statement pays neither the parser nor the cost-based planner. Keys
// incorporate the catalog statistics version and the rule-set registry
// version (see Engine.cacheEpoch), so any mutation that could change a
// costing decision silently invalidates every stale entry. Sharding
// keeps the serving path scalable: concurrent queries hash to
// different shards and never contend on one mutex.

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// planCacheShards is the shard count; a power of two well above typical
// core counts so lock contention stays negligible.
const planCacheShards = 16

// defaultPlanCacheSize is the default total entry capacity.
const defaultPlanCacheSize = 512

// CacheStats is a snapshot of plan-cache effectiveness, exposed through
// Engine.CacheStats and the simqd /stats endpoint.
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
	q   *Query
	d   *planDecision
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

// get returns the cached entry and promotes it to most recently used.
func (c *planCache) get(key string) (*planEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var entry *planEntry
	if ok {
		s.lru.MoveToFront(el)
		entry = el.Value.(*planEntry) // read under the lock: put refreshes Value in place
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		mPlanCacheMiss.Inc()
		return nil, false
	}
	c.hits.Add(1)
	mPlanCacheHit.Inc()
	return entry, true
}

// put inserts (or refreshes) an entry, evicting the least recently used
// entry of the shard at capacity.
func (c *planCache) put(key string, q *Query, d *planDecision) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value = &planEntry{key: key, q: q, d: d}
		s.lru.MoveToFront(el)
		return
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
	s.items[key] = s.lru.PushFront(&planEntry{key: key, q: q, d: d})
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
