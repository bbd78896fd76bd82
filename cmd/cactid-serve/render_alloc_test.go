//go:build !race

// The race detector's instrumentation allocates on its own account,
// so the allocation budget is checked only in normal builds.

package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/tech"
)

// discardWriter is a ResponseWriter that keeps one header map and
// drops the body, so a measurement sees only what the handler
// allocates.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestWriteResultsAllocBudget bounds what rendering a sweep
// allocates: a 64-point result set written through writeResults, over
// and over. The body buffer comes from bodyPool and fresh points
// render from a scratch value table on the render call's stack, so
// what remains is the parsed query and the response header (about 1 B
// per point); the budget is 256 B per point. Tier-0 hits render from
// the value tables their first render left on their entries: beyond
// what rendering an empty set allocates, they may allocate nothing per
// point. Building each point's organization strings measured about
// 100 B per point, and rendering into a fresh buffer each time about
// 1.2 KB.
func TestWriteResultsAllocBudget(t *testing.T) {
	const budget = 256
	g := explore.Grid{
		Base:       core.Spec{Node: tech.Node32, RAM: tech.SRAM, BlockBytes: 64, IsCache: true},
		Capacities: []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10},
		Assocs:     []int{1, 2, 4, 8},
		Modes:      []core.AccessMode{core.Normal, core.Sequential},
		Blocks:     []int{32, 64},
	}
	specs, _ := g.Expand()
	eng := explore.New(explore.Options{})
	results := eng.Sweep(context.Background(), specs)
	if len(results) != 64 {
		t.Fatalf("grid expands to %d points, want 64", len(results))
	}
	hits := eng.Sweep(context.Background(), specs)
	for i := range results {
		if results[i].Err != nil || !hits[i].Cached {
			t.Fatalf("point %d: %v, then cached %v", i, results[i].Err, hits[i].Cached)
		}
	}
	perPoint := writeResultsAllocs(t, results) / (renders * int64(len(results)))
	t.Logf("cold: %d B per point", perPoint)
	if perPoint > budget {
		t.Errorf("cold: writeResults allocates %d B per point, budget %d", perPoint, budget)
	}
	warm := (writeResultsAllocs(t, hits) - writeResultsAllocs(t, nil)) / (renders * int64(len(hits)))
	t.Logf("warm: %d B per point beyond an empty set's", warm)
	if warm > 0 {
		t.Errorf("warm: writeResults allocates %d B per point beyond an empty set's, budget 0", warm)
	}
}

// renders is how many measured renders writeResultsAllocs makes.
const renders = 32

// writeResultsAllocs renders results through writeResults once, then
// renders times more, and returns the bytes those allocated.
func writeResultsAllocs(t *testing.T, results []explore.Result) int64 {
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil)
	w := &discardWriter{h: http.Header{}}
	if err := writeResults(w, req, results, 0, len(results)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < renders; i++ {
		if err := writeResults(w, req, results, 0, len(results)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}
