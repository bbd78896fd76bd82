//go:build !race

// The race detector's instrumentation allocates on its own account,
// so the allocation counts are checked only in normal builds.

package array

import (
	"context"
	"math"
	"testing"

	"cactid/internal/tech"
)

// TestPrescanAllocs counts what the array half of a warm solve
// allocates, on the BenchmarkPrescan specs with the mat-stage table
// filled: a prescan, its exact-minimum walks and its release allocate
// nothing (the bank-edge driver comes from the table entry, not from a
// chain sized per prescan), an enumeration on one worker allocates
// nothing either (its index and slabs are pooled), and one on two
// workers at most one object per worker (its goroutine's closure; the
// per-worker sums, the wait group and the slot cursor live on the
// pooled index).
func TestPrescanAllocs(t *testing.T) {
	specs := map[string]Spec{
		"sram": specSRAM(4<<20, 512, 8),
		"comm-dram": {Tech: tech.New(tech.Node32), RAM: tech.COMMDRAM,
			CapacityBytes: 64 << 20, OutputBits: 512, AssocReadout: 1, PageBits: 8192},
		"sram-tag": specSRAM(8192*8*26/8, 8*26, 1),
	}
	ctx := context.Background()
	for name, spec := range specs {
		solve := func(workers int) {
			pre, err := Prescan(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer pre.Release()
			aMin, ok := pre.MinArea()
			if !ok {
				t.Fatalf("%s: no feasible point", name)
			}
			pre.MinAccessWithin(1, 0, math.Inf(1))
			if workers == 0 {
				return
			}
			lim := Limits{MaxAreaLB: 2 * aMin, MaxAccLB: math.Inf(1), AreaGuard: math.Inf(1)}
			enum, _, err := pre.Enumerate(ctx, workers, lim)
			if err != nil {
				t.Fatal(err)
			}
			enum.Release()
		}
		for _, leg := range []struct {
			name    string
			workers int // 0: no enumeration
			budget  float64
		}{{"prescan and walks", 0, 0}, {"one worker", 1, 0}, {"two workers", 2, 2}} {
			solve(leg.workers) // fill the table and the pools
			got := testing.AllocsPerRun(50, func() { solve(leg.workers) })
			t.Logf("%s, %s: %v allocations", name, leg.name, got)
			if got > leg.budget {
				t.Errorf("%s, %s: %v allocations, budget %v", name, leg.name, got, leg.budget)
			}
		}
	}
}
