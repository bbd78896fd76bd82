package core

import (
	"context"
	"math/rand/v2"
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

// boundableSpec draws a valid spec the bounded explore applies to:
// any provider with any RAM type it accepts, nodes 32/45/65/78/90
// (78 interpolated), caches in all three access modes and plain
// memories, PageBits set or unset, ECC on or off, repeater slack,
// sleep transistors and 1-8 banks (bank routing only with one bank,
// the boundable shape).
func boundableSpec(r *rand.Rand) Spec {
	providers := tech.Providers()
	for {
		s := Spec{
			Technology:        providers[r.IntN(len(providers))],
			Node:              []tech.Node{32, 45, 65, 78, 90}[r.IntN(5)],
			RAM:               tech.RAMType(r.IntN(int(tech.GAINCELL) + 1)),
			BlockBytes:        []int{32, 64, 128}[r.IntN(3)],
			Associativity:     1 << r.IntN(5),
			Banks:             1 + r.IntN(8),
			IsCache:           r.IntN(3) != 0,
			Mode:              AccessMode(r.IntN(3)),
			MaxPipelineStages: []int{0, 6}[r.IntN(2)],
			MaxRepeaterSlack:  []float64{0, 0.2}[r.IntN(2)],
			SleepTransistors:  r.IntN(4) == 0,
			ECC:               r.IntN(3) == 0,
		}
		if r.IntN(2) == 0 {
			s.PageBits = 1024 << r.IntN(4)
		}
		s.CapacityBytes = int64(s.Banks) * (int64(16<<10) << r.IntN(11))
		s.IncludeBankRouting = s.Banks == 1 && r.IntN(2) == 0
		if c := s; c.normalize() == nil && c.boundable() {
			return s
		}
	}
}

// TestBoundedMatchesExhaustiveGenerated extends
// TestBoundedFilterOutputIdentical from its hand-picked specs to
// generated ones over every provider: wherever the bounded path
// applies, its filtered list equals the filtered exhaustive list,
// value for value and in order, OptimizeContext's winner pick returns
// that list's first solution, and its counters keep the accounting
// invariant; where it falls back, the exhaustive path must agree that
// the spec has no solution or handle it alone.
func TestBoundedMatchesExhaustiveGenerated(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(17, 6))
	const n = 400
	applied := 0
	for i := 0; i < n; i++ {
		spec := boundableSpec(r)
		var st SolveStats
		sols, ok, err := exploreBounded(ctx, spec, &Options{Stats: &st})
		all, errU := ExploreContext(ctx, spec, nil)
		if err != nil {
			if errU == nil {
				t.Fatalf("spec %d %+v: bounded explore failed (%v) where the exhaustive one solves", i, spec, err)
			}
			continue
		}
		if !ok {
			continue
		}
		if errU != nil {
			t.Fatalf("spec %d %+v: exhaustive explore: %v", i, spec, errU)
		}
		applied++
		fu := Filter(spec, all)
		if fb := Filter(spec, sols); !reflect.DeepEqual(fb, fu) {
			t.Fatalf("spec %d %+v: filtered %d bounded solutions differ from %d exhaustive ones",
				i, spec, len(fb), len(fu))
		}
		best, err := OptimizeContext(ctx, spec, nil)
		if err != nil || len(fu) == 0 {
			t.Fatalf("spec %d %+v: OptimizeContext: %v (%d exhaustive survivors)", i, spec, err, len(fu))
		}
		if !reflect.DeepEqual(best, fu[0]) {
			t.Fatalf("spec %d %+v: OptimizeContext's winner differs from Filter's first solution", i, spec)
		}
		if total := st.Total(); total.Considered != total.PrunedTotal()+total.Built+total.BuildErrors {
			t.Fatalf("spec %d %+v: accounting invariant broken: %+v", i, spec, total)
		}
	}
	t.Logf("bounded path applied to %d of %d specs", applied, n)
	if applied < n*3/4 {
		t.Fatalf("bounded path applied to only %d of %d generated specs", applied, n)
	}
}
