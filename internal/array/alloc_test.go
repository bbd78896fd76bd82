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
// chain sized per prescan), and neither does an enumeration (its
// buffer is pooled).
func TestPrescanAllocs(t *testing.T) {
	specs := map[string]Spec{
		"sram": specSRAM(4<<20, 512, 8),
		"comm-dram": {Tech: tech.New(tech.Node32), RAM: tech.COMMDRAM,
			CapacityBytes: 64 << 20, OutputBits: 512, AssocReadout: 1, PageBits: 8192},
		"sram-tag": specSRAM(8192*8*26/8, 8*26, 1),
	}
	ctx := context.Background()
	for name, spec := range specs {
		solve := func(enumerate bool) {
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
			if !enumerate {
				return
			}
			lim := Limits{MaxAreaLB: 2 * aMin, MaxAccLB: math.Inf(1), AreaGuard: math.Inf(1)}
			enum, _, err := pre.Enumerate(ctx, lim)
			if err != nil {
				t.Fatal(err)
			}
			enum.Release()
		}
		for _, leg := range []struct {
			name      string
			enumerate bool
		}{{"prescan and walks", false}, {"enumeration", true}} {
			solve(leg.enumerate) // fill the table and the pools
			got := testing.AllocsPerRun(50, func() { solve(leg.enumerate) })
			t.Logf("%s, %s: %v allocations", name, leg.name, got)
			if got > 0 {
				t.Errorf("%s, %s: %v allocations, want none", name, leg.name, got)
			}
		}
	}
}
