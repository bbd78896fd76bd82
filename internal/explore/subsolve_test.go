package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// subSolveGrids draws seeded grids shaped like design-space tiles: a
// base of fixed fields crossed with capacities, associativities, banks
// and the three access modes, the axes along which points share array
// sub-solves. Across the grids they cover every tech.Providers() entry,
// nodes 32/45/65/90 and the interpolated 78, the three RAM types,
// caches and plain memories, ECC, two SRAM ports, a TagRAM override,
// sleep transistors, repeater slack, routed banks (the per-point
// fallback) and page sizes, some of which no organization meets, so
// some points have no solution.
func subSolveGrids(n int, seed uint64) []Grid {
	r := rand.New(rand.NewPCG(seed, 23))
	providers := tech.Providers()
	nodes := []tech.Node{32, 45, 65, 90, 78}
	rams := []tech.RAMType{tech.SRAM, tech.LPDRAM, tech.COMMDRAM}
	grids := make([]Grid, 0, n)
	for g := 0; g < n; g++ {
		base := core.Spec{
			Technology:        providers[g%len(providers)],
			Node:              nodes[g%len(nodes)],
			RAM:               rams[g%len(rams)],
			BlockBytes:        []int{32, 64, 128}[r.IntN(3)],
			IsCache:           g%6 != 5,
			MaxPipelineStages: []int{0, 6}[r.IntN(2)],
			MaxRepeaterSlack:  []float64{0, 0.2}[r.IntN(4)/3],
			SleepTransistors:  r.IntN(4) == 0,
			ECC:               r.IntN(3) == 0,
		}
		if base.RAM == tech.SRAM && r.IntN(2) == 0 {
			base.Ports = 2
		}
		if base.IsCache && r.IntN(4) == 0 {
			tagRAM := rams[r.IntN(len(rams))]
			base.TagRAM = &tagRAM
		}
		if base.RAM.IsDRAM() && r.IntN(2) == 0 {
			base.PageBits = []int{1024, 8192, 1 << 20}[r.IntN(3)]
		}
		base.IncludeBankRouting = r.IntN(8) == 0
		c := int64(16<<10) << r.IntN(10)
		grids = append(grids, Grid{
			Base:       base,
			Capacities: []int64{c, 2 * c},
			Assocs:     []int{1, 2, 4, 8}[r.IntN(2):][:3],
			Banks:      []int{1, 2, 4, 8}[r.IntN(2):][:3],
			Modes:      []core.AccessMode{core.Normal, core.Sequential, core.Fast},
		})
	}
	return grids
}

// outcome is a point's answer as a caller sees it: the projection's
// JSON, or the error text.
func outcome(t *testing.T, sol *core.Solution, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	p := sol.Projection()
	b, jerr := json.Marshal(&p)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return string(b)
}

// TestSweepMatchesPerPointGenerated: Engine.Sweep, whose points share
// their tag banks and data-array prescans through one core.SubSolves
// table, answers every point of generated grids exactly as a per-point
// core.OptimizeContext does — the projection's JSON or the error text —
// at one worker and at four. The one-worker sweep must take some of
// each sub-solve from the table, or the test compares nothing.
func TestSweepMatchesPerPointGenerated(t *testing.T) {
	ctx := context.Background()
	var specs []core.Spec
	for _, g := range subSolveGrids(28, 9) {
		s, _ := g.Expand()
		specs = append(specs, s...)
	}
	want := make([]string, len(specs))
	failed := 0
	for i, s := range specs {
		sol, err := core.OptimizeContext(ctx, s, nil)
		want[i] = outcome(t, sol, err)
		if err != nil {
			failed++
		}
	}
	if failed == 0 || failed > len(specs)/2 {
		t.Fatalf("%d of %d generated points fail: the grids should mix solutions and failures", failed, len(specs))
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			before := core.SubSolveCounters()
			results := New(Options{Workers: workers}).Sweep(ctx, specs)
			after := core.SubSolveCounters()
			for i, r := range results {
				if got := outcome(t, r.Solution, r.Err); got != want[i] {
					t.Fatalf("point %d %+v:\nsweep     %s\nper point %s", i, specs[i], got, want[i])
				}
			}
			tagHits, dataHits := after.TagHits-before.TagHits, after.DataHits-before.DataHits
			t.Logf("%d points: %d tag and %d data sub-solves from the table", len(specs), tagHits, dataHits)
			if workers == 1 && (tagHits == 0 || dataHits == 0) {
				t.Fatalf("a serial sweep of %d points shared %d tag and %d data sub-solves", len(specs), tagHits, dataHits)
			}
		})
	}
}

// TestCustomSolverSweepSharesNothing: an engine built with its own
// Solver keeps the per-point path, so a sweep through it takes nothing
// from a sub-solve table.
func TestCustomSolverSweepSharesNothing(t *testing.T) {
	ctx := context.Background()
	specs, _ := subSolveGrids(1, 3)[0].Expand()
	before := core.SubSolveCounters()
	e := New(Options{Workers: 1, Solver: func(ctx context.Context, s core.Spec) (*core.Solution, error) {
		return core.OptimizeContext(ctx, s, nil)
	}})
	e.Sweep(ctx, specs)
	if after := core.SubSolveCounters(); after != before {
		t.Fatalf("custom-solver sweep moved the shared sub-solve counters: %+v -> %+v", before, after)
	}
}
