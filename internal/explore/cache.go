package explore

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"cactid/internal/chaos"
	"cactid/internal/core"
)

// numShards spreads fingerprint keys over independently locked maps
// so a parallel sweep doesn't serialize on one mutex.
const numShards = 32

// entry is one cached (or in-flight) solve. ready is closed when sol
// and err are final; until then, other callers of the same
// fingerprint block on it instead of duplicating the solver call
// (singleflight-style dedup).
type entry struct {
	ready chan struct{}
	sol   *core.Solution
	err   error

	key   string
	elem  *list.Element // position in the owning shard's LRU list; access under that shard's mu
	touch uint64        // recency stamp from Cache.clock; access under that shard's mu
}

// done reports whether the entry's solve has completed. An entry
// becomes done exactly once (close(ready)), so a true answer is
// stable.
func (e *entry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

type cacheShard struct {
	mu  sync.Mutex
	m   map[string]*entry // guarded by mu
	lru *list.List        // guarded by mu; front = most recently used
}

// Cache is a sharded solution cache keyed by core.Spec fingerprints,
// with an optional entry bound enforced by least-recently-used
// eviction. It is safe for concurrent use; the zero value is not
// usable, call NewCacheWith.
type Cache struct {
	maxEntries int             // 0 = unbounded
	chaos      *chaos.Injector // nil = no fault injection

	clock        atomic.Uint64 // recency stamps, monotone across shards
	count        atomic.Int64  // live entries across all shards
	evictions    atomic.Int64  // entries removed by the LRU bound
	forcedMisses atomic.Int64  // chaos-injected miss storms

	shards [numShards]cacheShard
}

// CacheConfig bounds and instruments a Cache.
type CacheConfig struct {
	// MaxEntries caps the number of cached results; 0 means
	// unbounded. The bound is enforced by evicting the globally
	// least-recently-used completed entry. In-flight entries are
	// never evicted (eviction must not break in-flight dedup), so
	// the live count can transiently exceed the bound by the number
	// of concurrent distinct solves.
	MaxEntries int
	// Chaos arms the explore.cache.lookup injection point: a Miss
	// fault drops a completed entry on lookup, forcing a recompute.
	Chaos *chaos.Injector
}

// NewCacheWith returns an empty cache with the given bound and
// instrumentation.
func NewCacheWith(cfg CacheConfig) *Cache {
	if cfg.MaxEntries < 0 {
		cfg.MaxEntries = 0
	}
	c := &Cache{maxEntries: cfg.MaxEntries, chaos: cfg.Chaos}
	for i := range c.shards {
		//lint:ignore lockguard c is not published yet; the constructor runs single-threaded
		c.shards[i].m = make(map[string]*entry)
		//lint:ignore lockguard c is not published yet; the constructor runs single-threaded
		c.shards[i].lru = list.New()
	}
	return c
}

// fnv-1a over the fingerprint selects the shard.
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%numShards]
}

// lookup returns the entry for key, creating it if absent. created
// reports whether this caller owns the solve: it must fill the entry
// and close ready exactly once.
func (c *Cache) lookup(key string) (e *entry, created bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		// A chaos miss storm drops completed entries so the caller
		// recomputes; in-flight entries are left alone (two owners
		// for one key would break the dedup invariant).
		if e.done() && c.chaos.ForceMiss(chaos.CacheLookup) {
			delete(sh.m, key)
			sh.lru.Remove(e.elem)
			c.count.Add(-1)
			c.forcedMisses.Add(1)
		} else {
			e.touch = c.clock.Add(1)
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()
			return e, false
		}
	}
	e = &entry{ready: make(chan struct{}), key: key, touch: c.clock.Add(1)}
	e.elem = sh.lru.PushFront(e)
	sh.m[key] = e
	sh.mu.Unlock()
	if c.count.Add(1) > int64(c.maxEntries) && c.maxEntries > 0 {
		c.evictToBound()
	}
	return e, true
}

// forget removes key, releasing waiters-to-come to recompute. Used
// when the owning solve is abandoned before producing a result.
func (c *Cache) forget(key string) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		delete(sh.m, key)
		sh.lru.Remove(e.elem)
		c.count.Add(-1)
	}
	sh.mu.Unlock()
}

// evictToBound removes least-recently-used completed entries until
// the cache is back within its bound (or nothing evictable remains).
func (c *Cache) evictToBound() {
	for c.count.Load() > int64(c.maxEntries) {
		if !c.evictOne() {
			return
		}
	}
}

// evictOne drops the globally least-recently-touched completed entry.
// It scans each shard's LRU tail (oldest completed entry per shard),
// picks the overall oldest, and removes it. The scan-then-remove is
// two steps, so a concurrent touch can promote the victim in between;
// the re-check under the shard lock keeps the removal safe, and the
// bound converges once activity quiesces.
func (c *Cache) evictOne() bool {
	var victimShard *cacheShard
	var victimKey string
	victimTouch := uint64(math.MaxUint64)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if !e.done() {
				continue // in-flight entries are not evictable
			}
			if e.touch < victimTouch {
				victimTouch, victimShard, victimKey = e.touch, sh, e.key
			}
			break // the shard's oldest completed entry was found
		}
		sh.mu.Unlock()
	}
	if victimShard == nil {
		return false // everything live is in flight
	}
	evicted := false
	victimShard.mu.Lock()
	if e, ok := victimShard.m[victimKey]; ok && e.done() {
		delete(victimShard.m, victimKey)
		victimShard.lru.Remove(e.elem)
		c.count.Add(-1)
		c.evictions.Add(1)
		evicted = true
	}
	victimShard.mu.Unlock()
	return evicted
}

// Len returns the number of cached (including in-flight) entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// CacheStats is a snapshot of the cache's bound and churn counters.
type CacheStats struct {
	Entries      int   `json:"entries"`
	MaxEntries   int   `json:"max_entries"` // 0 = unbounded
	Evictions    int64 `json:"evictions"`
	ForcedMisses int64 `json:"forced_misses"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:      c.Len(),
		MaxEntries:   c.maxEntries,
		Evictions:    c.evictions.Load(),
		ForcedMisses: c.forcedMisses.Load(),
	}
}
