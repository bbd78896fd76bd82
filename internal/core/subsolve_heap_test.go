//go:build !race

// The race detector's shadow memory would not change the entries'
// accounted bytes, but the test solves twelve thousand points, so it
// runs in normal builds only.

package core_test

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"cactid/internal/core"
	"cactid/internal/spectest"
	"cactid/internal/tech"
)

// sweepTable solves specs through one SubSolves table the way
// explore's Engine.Sweep does: workers take runs of four consecutive
// points, solve each with Optimize, report it with Done, and the table
// is closed once they all return.
func sweepTable(t *testing.T, specs []core.Spec, workers int) *core.SubSolves {
	t.Helper()
	const run = 4
	tab := core.NewSubSolves(specs)
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(run)) - run
				if start >= len(specs) {
					return
				}
				for i := start; i < min(start+run, len(specs)); i++ {
					tab.Optimize(ctx, i, nil)
					tab.Done(i)
				}
			}
		}()
	}
	wg.Wait()
	tab.Close()
	return tab
}

// tableGrid is a 4,096-point grid in explore's Grid.Expand axis order
// (modes innermost, then banks, associativities, blocks, capacities,
// RAM types and nodes): two providers, two nodes, SRAM and COMM-DRAM,
// eight capacities, two blocks, four associativities, four bank
// counts and two modes.
func tableGrid() []core.Spec {
	var specs []core.Spec
	for _, tc := range []string{"", "stt-ram"} {
		for _, node := range []tech.Node{32, 65} {
			for _, ram := range []tech.RAMType{tech.SRAM, tech.COMMDRAM} {
				for c := 0; c < 8; c++ {
					for _, block := range []int{32, 64} {
						for _, assoc := range []int{1, 2, 4, 8} {
							for _, banks := range []int{1, 2, 4, 8} {
								for _, mode := range []core.AccessMode{core.Normal, core.Sequential} {
									specs = append(specs, core.Spec{
										Technology: tc, Node: node, RAM: ram,
										CapacityBytes: int64(64<<10) << c, BlockBytes: block,
										Associativity: assoc, Banks: banks, IsCache: true, Mode: mode,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}

// tileDraws draws n points the way random design-space tiles spread
// them over a sweep: each takes one of 64 valid generated bases and
// draws its per-bank capacity (16 KB-32 MB), associativity, bank count
// and access mode, so the points that share an array lie scattered
// over the whole sweep and its entries stay live long.
func tileDraws(n int, seed uint64) []core.Spec {
	r := rand.New(rand.NewPCG(seed, 19))
	pool := make([]core.Spec, 0, 64)
	for len(pool) < cap(pool) {
		s := spectest.Spec(r)
		if c := s; core.Normalize(&c) == nil && core.Boundable(&c) {
			pool = append(pool, s)
		}
	}
	specs := make([]core.Spec, n)
	for i := range specs {
		s := pool[r.IntN(len(pool))]
		s.Associativity = 1 << r.IntN(5)
		s.Banks = 1 << r.IntN(3)
		s.Mode = core.AccessMode(r.IntN(3))
		s.CapacityBytes = int64(s.Banks) * (int64(16<<10) << r.IntN(12))
		specs[i] = s
	}
	return specs
}

// TestSubSolvesHeapBudget bounds what a sweep's table holds at once: on
// two workers, over a 4,096-point grid and over 4,096 random tile
// points, the high-water mark of the bytes its live entries pin (a
// pooled build context per data entry, a bank and its mat per tag
// entry) stays at or under 2 MB, and Close leaves nothing live. Dropping entries after
// their last point and capping their count is what holds it: keeping
// every entry to the end of the sweep would pin one build context per
// distinct data array.
func TestSubSolvesHeapBudget(t *testing.T) {
	const budget = 2 << 20
	for _, leg := range []struct {
		name  string
		specs []core.Spec
	}{
		{"grid", tableGrid()},
		{"random", tileDraws(4096, 3)},
	} {
		t.Run(leg.name, func(t *testing.T) {
			before := core.SubSolveCounters()
			tab := sweepTable(t, leg.specs, 2)
			after := core.SubSolveCounters()
			peak := tab.Peak()
			t.Logf("%d points: peak %d B of live entries; %d tag and %d data sub-solves from the table",
				len(leg.specs), peak, after.TagHits-before.TagHits, after.DataHits-before.DataHits)
			if peak > budget {
				t.Errorf("live entries peaked at %d B, budget %d", peak, budget)
			}
			if b, d, g := tab.Live(); b != 0 || d != 0 || g != 0 {
				t.Errorf("after Close the table holds %d B in %d data and %d tag entries", b, d, g)
			}
		})
	}
}
