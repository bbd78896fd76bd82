//go:build !race

// The race detector's instrumentation allocates on its own account,
// so the allocation budget is checked only in normal builds.

package cactid

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"cactid/internal/core"
)

// TestSolveAllocBudget bounds what one warm solve allocates: every
// BenchmarkSolve spec, solved on one worker with the mat-stage table
// filled, must average at most 16 KB of heap per core.OptimizeContext
// call. The six specs measure 6-12 KB per solve: the chosen solution,
// the banks and mats the enumeration built, the tag probe and the
// solve's Technology copy. They measured 19-39 KB while the build
// context's grid-sized scratch was allocated per prescan and every
// candidate was assembled on the heap, and 97-200 KB when the prescan
// still held an Org per grid triple, so neither can come back
// unnoticed.
func TestSolveAllocBudget(t *testing.T) {
	const budget = 16 << 10
	const solves = 16
	specs := solveSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	ctx := context.Background()
	opts := &core.Options{Workers: 1}
	for _, name := range names {
		spec := specs[name]
		if _, err := core.OptimizeContext(ctx, spec, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < solves; i++ {
			if _, err := core.OptimizeContext(ctx, spec, opts); err != nil {
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
