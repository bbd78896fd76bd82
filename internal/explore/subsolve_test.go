package explore

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"cactid/internal/core"
	"cactid/internal/spectest"
	"cactid/internal/tech"
)

// tileGrids draws seeded grids shaped like design-space tiles: a
// generated valid base crossed with two capacities, three
// associativities, three bank counts and the three access modes, the
// axes along which points share array sub-solves. Grid g's base is a
// draw of the g-th provider in turn (the empty default after the named
// ones), and in every five grids four bases also have, in turn, two
// SRAM ports, a tag RAM override, ECC and bank routing (the per-point
// fallback). Each run of five grids is at one ITRS-table node, the
// five nodes in turn (the defaulted 0 counts as 32 nm). The bases'
// other fields (RAM type, page size, constraints) stay as drawn, so
// some grids have points no organization meets.
func tileGrids(n int, seed uint64) []Grid {
	r := rand.New(rand.NewPCG(seed, 23))
	providers := append(tech.Providers(), "")
	nodes := []tech.Node{32, 45, 65, 78, 90}
	features := []func(s core.Spec) bool{
		func(core.Spec) bool { return true },
		func(s core.Spec) bool { return s.Ports == 2 && s.RAM == tech.SRAM },
		func(s core.Spec) bool { return s.IsCache && s.TagRAM != nil },
		func(s core.Spec) bool { return s.ECC },
		func(s core.Spec) bool { return s.IncludeBankRouting },
	}
	grids := make([]Grid, 0, n)
	for len(grids) < n {
		g := len(grids)
		base := spectest.Spec(r)
		node := base.Node
		if node == 0 {
			node = tech.Node32
		}
		if base.Technology != providers[g%len(providers)] || !features[g%len(features)](base) ||
			node != nodes[g/len(features)%len(nodes)] {
			continue
		}
		if _, err := base.Canonical(); err != nil {
			continue
		}
		c := base.CapacityBytes / int64(max(base.Banks, 1))
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

// outcome is a point's answer as a caller sees it: every field of the
// projection, or the error text. fmt spells each float exactly, NaN
// and the infinities included, which JSON cannot carry.
func outcome(sol *core.Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	p := sol.Projection()
	spec, tag := *p.Spec, "none"
	if spec.TagRAM != nil {
		tag = spec.TagRAM.String()
	}
	w, data, tagOrg := spec.Weights, p.DataOrg, p.TagOrg
	spec.Weights, spec.TagRAM, p.Spec, p.DataOrg, p.TagOrg = nil, nil, nil, nil, nil
	return fmt.Sprintf("%+v %+v tag=%s %+v %+v %+v", spec, w, tag, p, data, tagOrg)
}

// TestSweepMatchesPerPointGenerated: Engine.Sweep, whose points share
// their tag banks and data-array prescans through one core.SubSolves
// table, answers every point of generated grids exactly as a per-point
// core.OptimizeContext does — every field of the projection or the
// error text — at one worker and at four. The grids' bases must cover
// every provider, the five ITRS-table nodes, the three ITRS RAM types,
// plain memories, two SRAM ports, a tag RAM override, ECC and bank
// routing, and the one-worker sweep must take some of each sub-solve
// from the table, or the test compares less than it claims.
func TestSweepMatchesPerPointGenerated(t *testing.T) {
	ctx := context.Background()
	var specs []core.Spec
	bases := map[string]int{}
	for _, g := range tileGrids(28, 9) {
		s, _ := g.Expand()
		specs = append(specs, s...)
		b := g.Base
		for k, ok := range map[string]bool{
			"provider " + b.Technology: true, "node " + b.Node.String(): true, "ram " + b.RAM.String(): true,
			"plain memory": !b.IsCache, "2-port SRAM": b.Ports == 2 && b.RAM == tech.SRAM,
			"tag RAM": b.IsCache && b.TagRAM != nil, "ECC": b.ECC, "bank routing": b.IncludeBankRouting,
			"page bits": b.PageBits != 0, "sleep transistors": b.SleepTransistors, "repeater slack": b.MaxRepeaterSlack != 0,
		} {
			if ok {
				bases[k]++
			}
		}
	}
	t.Logf("grid bases: %v", bases)
	for _, want := range []string{"2-port SRAM", "tag RAM", "ECC", "bank routing", "plain memory",
		"node 32nm", "node 45nm", "node 65nm", "node 78nm", "node 90nm", "ram SRAM", "ram LP-DRAM", "ram COMM-DRAM"} {
		if bases[want] == 0 {
			t.Errorf("no grid base has %s", want)
		}
	}
	for _, p := range append(tech.Providers(), "") {
		if bases["provider "+p] == 0 {
			t.Errorf("no grid base of provider %q", p)
		}
	}
	want := make([]string, len(specs))
	failed := 0
	for i, s := range specs {
		sol, err := core.OptimizeContext(ctx, s, nil)
		want[i] = outcome(sol, err)
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
				if got := outcome(r.Solution, r.Err); got != want[i] {
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
	specs, _ := tileGrids(1, 3)[0].Expand()
	before := core.SubSolveCounters()
	e := New(Options{Workers: 1, Solver: func(ctx context.Context, s core.Spec) (*core.Solution, error) {
		return core.OptimizeContext(ctx, s, nil)
	}})
	e.Sweep(ctx, specs)
	if after := core.SubSolveCounters(); after != before {
		t.Fatalf("custom-solver sweep moved the shared sub-solve counters: %+v -> %+v", before, after)
	}
}
