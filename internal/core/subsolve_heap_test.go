//go:build !race

// The race detector's shadow memory would not change the entries'
// accounted bytes, but the test solves twelve thousand points, so it
// runs in normal builds only.

package core

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"cactid/internal/tech"
)

// sweepTable solves specs through one SubSolves table the way
// explore's Engine.Sweep does: workers take runs of four consecutive
// points, solve each with Optimize, report it with Done, and the table
// is closed once they all return.
func sweepTable(t *testing.T, specs []Spec, workers int) *SubSolves {
	t.Helper()
	const run = 4
	tab := NewSubSolves(specs)
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
					tab.Optimize(ctx, i, &Options{Workers: 1})
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
func tableGrid() []Spec {
	var specs []Spec
	for _, tc := range []string{"", "stt-ram"} {
		for _, node := range []tech.Node{32, 65} {
			for _, ram := range []tech.RAMType{tech.SRAM, tech.COMMDRAM} {
				for c := 0; c < 8; c++ {
					for _, block := range []int{32, 64} {
						for _, assoc := range []int{1, 2, 4, 8} {
							for _, banks := range []int{1, 2, 4, 8} {
								for _, mode := range []AccessMode{Normal, Sequential} {
									specs = append(specs, Spec{
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

// tableRandomSpecs draws n specs as explore's heapSpecs does: every
// provider, the four study nodes, the three RAM types, 16 KB-64 MB,
// blocks, associativities, banks and access modes, caches and plain
// memories.
func tableRandomSpecs(n int, seed uint64) []Spec {
	r := rand.New(rand.NewPCG(seed, 19))
	providers := tech.Providers()
	specs := make([]Spec, 0, n)
	for len(specs) < n {
		s := Spec{
			Technology:    providers[r.IntN(len(providers))],
			Node:          []tech.Node{32, 45, 65, 90}[r.IntN(4)],
			RAM:           []tech.RAMType{tech.SRAM, tech.LPDRAM, tech.COMMDRAM}[r.IntN(3)],
			BlockBytes:    []int{32, 64, 128}[r.IntN(3)],
			Associativity: 1 << r.IntN(5),
			Banks:         1 << r.IntN(3),
			IsCache:       r.IntN(4) != 0,
			Mode:          AccessMode(r.IntN(3)),
		}
		s.CapacityBytes = int64(s.Banks) * (int64(16<<10) << r.IntN(12))
		specs = append(specs, s)
	}
	return specs
}

// TestSubSolvesHeapBudget bounds what a sweep's table holds at once: on
// two workers, over a 4,096-point grid and over 4,096 random specs, the
// high-water mark of the bytes its live entries pin (a pooled build
// context per data entry, a bank and its mat per tag entry) stays at
// or under 2 MB, and Close leaves nothing live. Dropping entries after
// their last point and capping their count is what holds it: keeping
// every entry to the end of the sweep would pin one build context per
// distinct data array.
func TestSubSolvesHeapBudget(t *testing.T) {
	const budget = 2 << 20
	for _, leg := range []struct {
		name  string
		specs []Spec
	}{
		{"grid", tableGrid()},
		{"random", tableRandomSpecs(4096, 3)},
	} {
		t.Run(leg.name, func(t *testing.T) {
			before := SubSolveCounters()
			tab := sweepTable(t, leg.specs, 2)
			after := SubSolveCounters()
			peak := tab.peak.Load()
			t.Logf("%d points: peak %d B of live entries; %d tag and %d data sub-solves from the table",
				len(leg.specs), peak, after.TagHits-before.TagHits, after.DataHits-before.DataHits)
			if peak > budget {
				t.Errorf("live entries peaked at %d B, budget %d", peak, budget)
			}
			if b, d, g := tab.bytes.Load(), tab.liveData.Load(), tab.liveTag.Load(); b != 0 || d != 0 || g != 0 {
				t.Errorf("after Close the table holds %d B in %d data and %d tag entries", b, d, g)
			}
		})
	}
}
