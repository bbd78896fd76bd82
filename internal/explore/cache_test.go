package explore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/tech"
)

// fill inserts n distinct completed entries (keys key0..key{n-1}).
func fill(c *cache, n int) {
	for i := 0; i < n; i++ {
		e, created := c.lookup(fmt.Sprintf("key%d", i))
		if created {
			close(e.ready)
		}
	}
}

// entries is the cache's live entry count, in-flight ones included.
func entries(c *cache) int {
	n, _, _ := c.stats()
	return n
}

// evictions is the cache's count of entries removed by its bound.
func evictions(c *cache) int64 {
	_, ev, _ := c.stats()
	return ev
}

func TestCacheUnboundedByDefault(t *testing.T) {
	for _, bound := range []int{0, -1} {
		c := newCache(bound, nil)
		fill(c, 500)
		if got, ev := entries(c), evictions(c); got != 500 || ev != 0 {
			t.Fatalf("bound %d: unbounded cache evicted: %d entries, %d evictions", bound, got, ev)
		}
		if c.maxEntries != 0 {
			t.Fatalf("bound %d: maxEntries = %d, want 0", bound, c.maxEntries)
		}
	}
}

func TestCacheBoundEvictsLRU(t *testing.T) {
	const bound = 16
	c := newCache(bound, nil)
	fill(c, 4*bound)
	if got := entries(c); got > bound {
		t.Fatalf("%d entries exceed bound %d", got, bound)
	}
	if ev := evictions(c); ev != 3*bound {
		t.Fatalf("evictions = %d, want %d", ev, 3*bound)
	}
	// The newest keys survive; the oldest were evicted.
	if _, created := c.lookup("key0"); !created {
		t.Error("oldest key survived LRU eviction")
	}
	if _, created := c.lookup(fmt.Sprintf("key%d", 4*bound-1)); created {
		t.Error("newest key was evicted")
	}
}

func TestCacheTouchOnHitProtectsFromEviction(t *testing.T) {
	const bound = 8
	c := newCache(bound, nil)
	fill(c, bound) // keys 0..7, key0 the least recently used
	// Touch key0: key1 becomes the eviction candidate.
	if _, created := c.lookup("key0"); created {
		t.Fatal("key0 missing before overflow")
	}
	e, _ := c.lookup("fresh") // overflow by one
	close(e.ready)
	if _, created := c.lookup("key0"); created {
		t.Error("recently touched key0 was evicted")
	}
	if _, created := c.lookup("key1"); !created {
		t.Error("key1 should have been the LRU victim")
	}
}

func TestCacheNeverEvictsInFlightEntries(t *testing.T) {
	const bound = 4
	c := newCache(bound, nil)
	// Fill the cache with in-flight (never-completed) entries past
	// the bound: none may be evicted.
	var owners []*entry
	for i := 0; i < 2*bound; i++ {
		e, created := c.lookup(fmt.Sprintf("inflight%d", i))
		if !created {
			t.Fatalf("entry %d pre-existing", i)
		}
		owners = append(owners, e)
	}
	if got := entries(c); got != 2*bound {
		t.Fatalf("in-flight entries evicted: %d entries, want %d", got, 2*bound)
	}
	if ev := evictions(c); ev != 0 {
		t.Fatalf("evicted %d in-flight entries", ev)
	}
	// Complete them; the next insert pulls the cache back in bound.
	for _, e := range owners {
		close(e.ready)
	}
	e, _ := c.lookup("trigger")
	close(e.ready)
	if got := entries(c); got > bound {
		t.Fatalf("%d entries after completion + insert, want <= %d", got, bound)
	}
}

func TestCacheForgetReleasesCapacity(t *testing.T) {
	c := newCache(4, nil)
	fill(c, 4)
	c.forget("key0")
	if got := entries(c); got != 3 {
		t.Fatalf("%d entries after forget, want 3", got)
	}
	fill(c, 5) // re-inserts key0..key3 (key0 recreated), adds key4
	if ev := evictions(c); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestCacheBoundUnderConcurrency: eviction runs under the insert's
// lock, so the bound holds after every insert, not only once the
// inserts stop. Each goroutine checks while its own entry is still in
// flight; eight in-flight entries never outnumber the bound, so no
// slack is due.
func TestCacheBoundUnderConcurrency(t *testing.T) {
	const bound, workers, keys = 32, 8, 200
	c := newCache(bound, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				e, created := c.lookup(fmt.Sprintf("w%d-k%d", w, i))
				if got := entries(c); got > bound {
					t.Errorf("%d entries after an insert, bound %d", got, bound)
					return
				}
				if created {
					close(e.ready)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := entries(c); got != bound {
		t.Fatalf("%d entries after the inserts, want the bound %d", got, bound)
	}
	if ev := evictions(c); ev != workers*keys-bound {
		t.Fatalf("evictions = %d, want %d", ev, workers*keys-bound)
	}
}

func TestChaosMissStormForcesRecompute(t *testing.T) {
	inj := chaos.New(42, chaos.Rule{Point: chaos.CacheLookup, Fault: chaos.Miss, Rate: 1})
	n, solver := countingSolver(0)
	e := New(Options{Solver: solver, Chaos: inj})
	spec := core.Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}

	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, _, err := e.Solve(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	// Every repeat lookup was forced to miss: one solve per call.
	if got := n.Load(); got != rounds {
		t.Fatalf("solver ran %d times under a miss storm, want %d", got, rounds)
	}
	st := e.Stats()
	if st.CacheForcedMisses != rounds-1 {
		t.Fatalf("forced misses = %d, want %d", st.CacheForcedMisses, rounds-1)
	}
	snap := inj.Snapshot()[chaos.CacheLookup]
	if snap.Misses != rounds-1 {
		t.Fatalf("injector counted %d misses, want %d", snap.Misses, rounds-1)
	}
}

func TestChaosMissStormSparesInFlightEntries(t *testing.T) {
	inj := chaos.New(1, chaos.Rule{Point: chaos.CacheLookup, Fault: chaos.Miss, Rate: 1})
	c := newCache(0, inj)
	if _, created := c.lookup("k"); !created {
		t.Fatal("first lookup should create")
	}
	// The entry is still in flight: a forced miss must not steal
	// ownership.
	if _, created := c.lookup("k"); created {
		t.Fatal("miss storm created a second owner for an in-flight entry")
	}
	if _, _, forced := c.stats(); forced != 0 {
		t.Fatal("in-flight entry counted as a forced miss")
	}
}
