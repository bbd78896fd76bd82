package core

import (
	"context"
	"reflect"
	"testing"

	"cactid/internal/tech"
)

// equivalenceSpecs covers every access-mode composition the bounded
// explore translates thresholds through: plain RAM, normal cache, fast
// cache, sequential DRAM cache and plain DRAM.
func equivalenceSpecs() map[string]Spec {
	fast := sramCache(1<<20, 8, 1)
	fast.Mode = Fast
	return map[string]Spec{
		"sram-cache": sramCache(1<<20, 8, 1),
		"sram-fast":  fast,
		"sram-plain": {Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 256 << 10, BlockBytes: 64},
		"dram-cache-seq": {
			Node: tech.Node45, RAM: tech.COMMDRAM,
			CapacityBytes: 16 << 20, BlockBytes: 64, Associativity: 8, Banks: 1,
			IsCache: true, Mode: Sequential, PageBits: 8192, MaxPipelineStages: 6,
		},
		"dram-plain": {
			Node: tech.Node45, RAM: tech.COMMDRAM,
			CapacityBytes: 16 << 20, BlockBytes: 8, PageBits: 8192,
		},
	}
}

// The branch-and-bound path is an optimization, not a semantic change:
// the full filtered solution list — values and order — must be
// byte-identical with pruning on and off. This is the acceptance bar
// for the bounded explore (DESIGN.md §1.2e).
func TestBoundedFilterOutputIdentical(t *testing.T) {
	ctx := context.Background()
	for name, spec := range equivalenceSpecs() {
		var stB SolveStats
		sols, ok, err := exploreBounded(ctx, spec, &Options{Stats: &stB})
		if err != nil {
			t.Fatalf("%s: bounded explore: %v", name, err)
		}
		if !ok {
			t.Fatalf("%s: bounded path did not apply", name)
		}
		all, err := ExploreContext(ctx, spec, nil)
		if err != nil {
			t.Fatalf("%s: unbounded explore: %v", name, err)
		}
		fb, fu := Filter(spec, sols), Filter(spec, all)
		if len(fb) != len(fu) {
			t.Fatalf("%s: filtered %d bounded vs %d unbounded solutions", name, len(fb), len(fu))
		}
		for i := range fb {
			if !reflect.DeepEqual(fb[i], fu[i]) {
				t.Fatalf("%s: filtered solution %d differs between bounded and unbounded", name, i)
			}
		}
		if stB.Data.PrunedBoundShard+stB.Data.PrunedBoundPoint == 0 {
			t.Errorf("%s: bound pruning never engaged: %+v", name, stB.Data)
		}
	}
}

// The bounded Optimize must return the identical chosen solution as
// the staged filter over the exhaustive enumeration, whose stats must
// show the bound buckets empty.
func TestOptimizeNoBoundIdentical(t *testing.T) {
	ctx := context.Background()
	for name, spec := range equivalenceSpecs() {
		var stB, stU SolveStats
		bounded, err := OptimizeContext(ctx, spec, &Options{Stats: &stB})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all, err := ExploreContext(ctx, spec, &Options{Stats: &stU})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", name, err)
		}
		filtered := Filter(spec, all)
		if len(filtered) == 0 {
			t.Fatalf("%s: exhaustive enumeration has no solution", name)
		}
		if !reflect.DeepEqual(bounded, filtered[0]) {
			t.Fatalf("%s: bound pruning changed the chosen solution", name)
		}
		if n := stU.Total(); n.PrunedBoundShard+n.PrunedBoundPoint != 0 {
			t.Errorf("%s: exhaustive run bound-pruned: %+v", name, n)
		}
		if total := stB.Total(); total.Considered != total.PrunedTotal()+total.Built+total.BuildErrors {
			t.Errorf("%s: bounded accounting invariant broken: %+v", name, total)
		}
	}
}
