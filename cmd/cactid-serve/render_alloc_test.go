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

// TestWriteResultsAllocBudget bounds what rendering a warm sweep
// allocates: a 64-point result set written through writeResults, over
// and over, may allocate at most 256 B per point. The body buffer
// comes from bodyPool, so what remains is the per-point organization
// strings (about 100 B); rendering into a fresh buffer each time
// measured about 1.2 KB per point.
func TestWriteResultsAllocBudget(t *testing.T) {
	const budget = 256
	const renders = 32
	g := explore.Grid{
		Base:       core.Spec{Node: tech.Node32, RAM: tech.SRAM, BlockBytes: 64, IsCache: true},
		Capacities: []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10},
		Assocs:     []int{1, 2, 4, 8},
		Modes:      []core.AccessMode{core.Normal, core.Sequential},
		Blocks:     []int{32, 64},
	}
	specs, _ := g.Expand()
	results := explore.New(explore.Options{}).Sweep(context.Background(), specs)
	if len(results) != 64 {
		t.Fatalf("grid expands to %d points, want 64", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Index, r.Err)
		}
	}
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
	perPoint := (after.TotalAlloc - before.TotalAlloc) / (renders * uint64(len(results)))
	t.Logf("%d B per point", perPoint)
	if perPoint > budget {
		t.Errorf("writeResults allocates %d B per point, budget %d", perPoint, budget)
	}
}
