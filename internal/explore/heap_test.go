//go:build !race

// The race detector's shadow memory and instrumentation allocations
// would count against the live heap, so the budget is checked only in
// normal builds.

package explore

import (
	"context"
	"runtime"
	"testing"

	"cactid/internal/core"
)

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTier0HeapPerEntry bounds what one cached result keeps alive.
// It sweeps a few thousand generated specs into an unbounded engine
// and charges the live heap the engine holds afterwards to its tier-0
// entries: at most 2 KB each. A projected entry (spec, scalar metrics,
// organizations and stages, plus the cache's key, list element and
// ready channel) measures about 1 KB; one holding the whole evaluated
// design measured 18.6 KB. The entries are the first 3,000 distinct
// generated specs that solve: a quarter of the draws admit no
// solution, and an entry holding only its error is a fraction of a
// solved one, so counting them would thin the per-entry figure. A
// first sweep through a throwaway engine picks them and fills the
// process-wide mat-stage table, so its growth is not charged to the
// entries. A second leg sweeps the specs again and renders every point
// as the tier-0 hit it is, so every entry builds its value table; an
// entry with its table, the form a repeat-hot server keeps, stays
// inside the same budget.
func TestTier0HeapPerEntry(t *testing.T) {
	const budget = 2 << 10
	ctx := context.Background()
	var specs []core.Spec
	for _, r := range New(Options{}).Sweep(ctx, distinctSpecs(4500, 1)) {
		if r.Err == nil && len(specs) < 3000 {
			specs = append(specs, r.Spec)
		}
	}
	if len(specs) < 3000 {
		t.Fatalf("%d of 4,500 generated specs solve, want 3,000", len(specs))
	}

	before := liveHeap()
	e := New(Options{})
	e.Sweep(ctx, specs)
	after := liveHeap()
	entries := e.Stats().CacheEntries
	if entries != len(specs) {
		t.Fatalf("tier 0 holds %d entries after sweeping %d distinct specs", entries, len(specs))
	}
	perEntry := int64(after-before) / int64(entries)
	t.Logf("%d solved entries: %d B of live heap each", entries, perEntry)
	if perEntry > budget {
		t.Errorf("%d B of live heap per tier-0 entry, budget %d", perEntry, budget)
	}

	hits := e.Sweep(ctx, specs)
	runtime.GC() // with liveHeap's, empties the pools' victim caches
	unrendered := liveHeap()
	if _, err := AppendResultsJSON(nil, hits, "", ""); err != nil {
		t.Fatal(err)
	}
	rendered := liveHeap()
	runtime.KeepAlive(hits)
	runtime.KeepAlive(e)
	table := int64(rendered-unrendered) / int64(entries)
	t.Logf("rendered as hits: %d B of value table each, %d B per entry with it", table, perEntry+table)
	if perEntry+table > budget {
		t.Errorf("%d B of live heap per tier-0 entry with its value table, budget %d", perEntry+table, budget)
	}
}

// TestRenderCallAllocs: a render call fills the value table of a point
// without a table of its own in a buffer on its stack, and a tier-0
// hit copies the table its first render left on its entry, so neither
// a job stream's one-result AppendResultJSON, nor /v1/solve's
// AppendSolutionJSON, nor a sweep's AppendResultsJSON allocates once
// dst has room. Building each point's organization strings cost two
// allocations per point.
func TestRenderCallAllocs(t *testing.T) {
	ctx := context.Background()
	specs := distinctSpecs(64, 36)
	e := New(Options{})
	fresh := e.Sweep(ctx, specs)
	hits := e.Sweep(ctx, specs)
	dst := make([]byte, 0, 1<<20)
	for _, leg := range []struct {
		name    string
		results []Result
	}{{"fresh", fresh}, {"hits", hits}} {
		if _, err := AppendResultsJSON(dst, leg.results, "", ""); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, r := range leg.results {
				AppendResultJSON(dst, r, "", "")
				if r.Solution != nil {
					AppendSolutionJSON(dst, r.Solution, "", "  ")
				}
			}
			AppendResultsJSON(dst, leg.results, "  ", "  ")
		})
		if allocs != 0 {
			t.Errorf("%s: rendering %d points allocates %.1f times", leg.name, len(leg.results), allocs)
		}
	}
}

// TestSweepHeapReturns: a sweep's shared sub-solve table lives only as
// long as the Sweep call. A sweep through a throwaway engine, its
// results dropped, must leave the live heap where it found it: every
// data entry's build context is back in its pool, every tag entry is
// unreachable, and nothing global keeps the table. Two collections
// before each reading empty the pools, whose contents are not live
// data; a first sweep of the same specs fills the process-wide
// mat-stage table and the interpolated-node memo, which are not the
// sweep's to return.
func TestSweepHeapReturns(t *testing.T) {
	const slack = 16 << 10
	specs := distinctSpecs(2000, 7)
	for _, g := range tileGrids(8, 5) {
		s, _ := g.Expand()
		specs = append(specs, s...)
	}
	ctx := context.Background()
	unsolved := 0
	for _, r := range New(Options{}).Sweep(ctx, specs) {
		if r.Err != nil {
			unsolved++
		}
	}

	drained := func() uint64 {
		runtime.GC()
		return liveHeap()
	}
	before := drained()
	hits := core.SubSolveCounters()
	New(Options{}).Sweep(ctx, specs)
	after := drained()
	shared := core.SubSolveCounters().DataHits - hits.DataHits
	runtime.KeepAlive(specs)
	t.Logf("%d points, %d data sub-solves shared: %d B of live heap before the sweep, %d B after",
		len(specs), shared, before, after)
	if shared == 0 {
		t.Fatal("the sweep shared no data sub-solve")
	}
	if diff := int64(after) - int64(before); diff > slack || diff < -slack {
		t.Errorf("live heap moved by %d B across a discarded sweep, slack %d", diff, slack)
	}
}
