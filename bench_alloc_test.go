//go:build !race

// The race detector's instrumentation allocates on its own account,
// so the allocation budget is checked only in normal builds.

package cactid

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
)

// TestSolveAllocBudget bounds what one warm solve allocates: every
// BenchmarkSolve spec, solved on one worker with the mat-stage table
// filled, must average at most 6 KB of heap per core.OptimizeContext
// call. A solve allocates its answer and little else: the chosen
// solution with a copy of its data bank and mat, the copied tag bank,
// the tag probe and the solve's Technology copy; the banks and mats the
// enumeration builds live in pooled slabs. The six specs measure
// 2.9-4.1 KB per solve. They measured 5.8-11.2 KB while the
// enumeration allocated its banks and mats per solve, 19-39 KB while
// the build context's grid-sized scratch was allocated per prescan and
// every candidate was assembled on the heap, and 97-200 KB when the
// prescan still held an Org per grid triple, so none can come back
// unnoticed.
func TestSolveAllocBudget(t *testing.T) {
	const budget = 6 << 10
	const solves = 16
	specs := solveSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	ctx := context.Background()
	for _, name := range names {
		spec := specs[name]
		if _, err := core.OptimizeContext(ctx, spec, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < solves; i++ {
			if _, err := core.OptimizeContext(ctx, spec, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		perSolve := (after.TotalAlloc - before.TotalAlloc) / solves
		t.Logf("%s: %d B per solve", name, perSolve)
		if perSolve > budget {
			t.Errorf("%s: %d B allocated per solve, budget %d", name, perSolve, budget)
		}
	}
}

// TestSweepAllocBudget bounds what a cold dse-style sweep allocates:
// the 16 dseTiles, one Engine.Sweep call each on a fresh engine with
// the mat-stage table filled, must average at most 8 KB of heap per
// point. A point's solve allocates its answer, and its tier-0 entry
// and result come on top; the enumeration's banks and mats live in
// pooled slabs. The tiles' 390 points measure about 4.3 KB each, and
// 18.7 KB while every enumeration allocated its banks and mats afresh.
func TestSweepAllocBudget(t *testing.T) {
	const budget = 8 << 10
	tiles := dseTiles(t)
	ctx := context.Background()
	sweep := func() (points int) {
		e := explore.New(explore.Options{})
		for _, tile := range tiles {
			for _, r := range e.Sweep(ctx, tile) {
				if r.Err != nil && !errors.Is(r.Err, core.ErrNoSolution) {
					t.Fatalf("point %d: %v", r.Index, r.Err)
				}
			}
			points += len(tile)
		}
		return points
	}
	sweep() // fill the mat-stage table
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	points := sweep()
	runtime.ReadMemStats(&after)
	perPoint := (after.TotalAlloc - before.TotalAlloc) / uint64(points)
	t.Logf("%d points: %d B per point", points, perPoint)
	if perPoint > budget {
		t.Errorf("%d B allocated per sweep point, budget %d", perPoint, budget)
	}
}
