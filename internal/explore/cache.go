package explore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cactid/internal/chaos"
	"cactid/internal/core"
)

// entry is one cached (or in-flight) solve. ready is closed when sol
// and err are final; until then, other callers of the same
// fingerprint block on it instead of duplicating the solver call
// (singleflight-style dedup).
type entry struct {
	ready chan struct{}
	sol   *core.Solution
	err   error

	// table is sol's value table, built by the first render of a hit
	// on the entry (jsonEnc.values); nil until then.
	table atomic.Pointer[[]byte]

	key  string
	elem *list.Element // position in the cache's LRU list; access under the cache's mu
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

// cache is tier 0: solutions keyed by core.Spec fingerprints in one
// map and one least-recently-used list under one mutex. A bounded
// cache evicts the least recently used completed entries as part of
// each insert. In-flight entries are never evicted (eviction must not
// break in-flight dedup), so the live count exceeds the bound only
// while more distinct solves than the bound are in flight.
type cache struct {
	maxEntries int             // 0 = unbounded
	chaos      *chaos.Injector // nil = no fault injection

	mu           sync.Mutex
	m            map[string]*entry // guarded by mu
	lru          *list.List        // guarded by mu; front = most recently used
	evictions    int64             // guarded by mu; entries removed by the bound
	forcedMisses int64             // guarded by mu; chaos-injected miss storms
}

// newCache returns an empty cache that keeps at most maxEntries
// completed entries (0 or less: unbounded). inj arms the
// explore.cache.lookup injection point: a Miss fault drops a completed
// entry on lookup, forcing a recompute.
func newCache(maxEntries int, inj *chaos.Injector) *cache {
	return &cache{maxEntries: max(maxEntries, 0), chaos: inj, m: make(map[string]*entry), lru: list.New()}
}

// lookup returns the entry for key, creating it if absent. created
// reports whether this caller owns the solve: it must fill the entry
// and close ready exactly once. An insert past the bound evicts before
// lookup returns.
func (c *cache) lookup(key string) (e *entry, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		// A chaos miss storm drops completed entries so the caller
		// recomputes; in-flight entries are left alone (two owners
		// for one key would break the dedup invariant).
		if !e.done() || !c.chaos.ForceMiss(chaos.CacheLookup) {
			c.lru.MoveToFront(e.elem)
			return e, false
		}
		delete(c.m, key)
		c.lru.Remove(e.elem)
		c.forcedMisses++
	}
	e = &entry{ready: make(chan struct{}), key: key}
	e.elem = c.lru.PushFront(e)
	c.m[key] = e
	for el := c.lru.Back(); el != nil && c.maxEntries > 0 && len(c.m) > c.maxEntries; {
		old := el.Value.(*entry)
		el = el.Prev()
		if old.done() { // in-flight entries are not evictable
			delete(c.m, old.key)
			c.lru.Remove(old.elem)
			c.evictions++
		}
	}
	return e, true
}

// forget removes key, releasing callers to come to recompute. Used
// when the owning solve is abandoned before producing a result.
func (c *cache) forget(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		delete(c.m, key)
		c.lru.Remove(e.elem)
	}
}

// stats returns the number of entries (in-flight ones included) and
// the eviction and forced-miss counts, read together.
func (c *cache) stats() (entries int, evictions, forcedMisses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.evictions, c.forcedMisses
}
