package explore

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// The ITRS equivalence layer: the solver's rendered output for the
// built-in ITRS technologies is pinned byte-for-byte in testdata, and
// TestProviderITRSByteIdentical re-renders the same workloads on every
// run. The goldens were generated BEFORE the tech.Provider refactor
// (run with -update-golden only for an intentional, ModelVersion-bumped
// change), so a pass proves the provider indirection reproduces the
// hard-wired pre-refactor models exactly — fingerprints included.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the pinned ITRS golden outputs in testdata (requires a ModelVersion bump)")

// equivSolveSpecs mirrors the BenchmarkSolve spec set at the repo root
// (bench_test.go solveSpecs), in the deterministic name order the
// benchmark runs them: an SRAM cache, a sequential-mode COMM-DRAM
// cache and a plain COMM-DRAM memory, each at 45 and 32 nm.
func equivSolveSpecs() []core.Spec {
	var specs []core.Spec
	for _, node := range []tech.Node{tech.Node32, tech.Node45} {
		specs = append(specs,
			core.Spec{
				Node: node, RAM: tech.COMMDRAM, CapacityBytes: 64 << 20,
				BlockBytes: 64, Associativity: 8, IsCache: true,
				Mode: core.Sequential, PageBits: 8192, MaxPipelineStages: 6,
			},
			core.Spec{
				Node: node, RAM: tech.COMMDRAM, CapacityBytes: 64 << 20,
				BlockBytes: 64, PageBits: 8192,
			},
			core.Spec{
				Node: node, RAM: tech.SRAM, CapacityBytes: 4 << 20,
				BlockBytes: 64, Associativity: 8, IsCache: true,
			},
		)
	}
	return specs
}

// equivSweepGrid is the 64-point SRAM sweep grid the engine benchmarks
// use, plus an 8-point COMM-DRAM grid so the pinned sweep also covers
// the destructive-read/refresh path and DRAM tag arrays.
func equivSweepGrids() []Grid {
	return []Grid{
		testGrid(),
		{
			Base: core.Spec{Node: tech.Node32, RAM: tech.COMMDRAM, IsCache: true,
				PageBits: 8192, MaxPipelineStages: 6},
			Capacities: []int64{16 << 20, 64 << 20},
			Assocs:     []int{8},
			Blocks:     []int{64},
			Banks:      []int{1, 8},
			Modes:      []core.AccessMode{core.Normal, core.Sequential},
		},
	}
}

// renderBoth renders results through both exporters exactly as
// cactid-serve and cmd/cactid do.
func renderBoth(t *testing.T, results []Result) (jsonOut, csvOut []byte) {
	t.Helper()
	jb, err := AppendResultsJSON(nil, results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := WriteCSV(&cb, results); err != nil {
		t.Fatal(err)
	}
	return append(jb, '\n'), cb.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden after an intentional model change): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from pre-refactor pinned golden (%d bytes vs %d); ITRS results must be byte-identical across refactors", name, len(got), len(want))
	}
}

// TestProviderITRSByteIdentical re-runs the full BenchmarkSolve spec
// set plus the benchmark sweep grids through the exploration engine
// and asserts the rendered JSON and CSV — fingerprints, organization
// strings, every float — are byte-identical to the pre-refactor pinned
// outputs.
func TestProviderITRSByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-heavy equivalence suite")
	}
	ctx := context.Background()

	t.Run("solve-set", func(t *testing.T) {
		e := New(Options{})
		results := e.Sweep(ctx, equivSolveSpecs())
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("point %d: %v", r.Index, r.Err)
			}
		}
		j, c := renderBoth(t, results)
		checkGolden(t, "itrs_solve.json", j)
		checkGolden(t, "itrs_solve.csv", c)
	})

	for gi, g := range equivSweepGrids() {
		g := g
		t.Run(fmt.Sprintf("sweep-grid-%d", gi), func(t *testing.T) {
			specs, skipped := g.Expand()
			results := New(Options{}).Sweep(ctx, specs)
			if skipped != 0 {
				t.Fatalf("%d grid points skipped", skipped)
			}
			j, c := renderBoth(t, results)
			checkGolden(t, fmt.Sprintf("itrs_sweep%d.json", gi), j)
			checkGolden(t, fmt.Sprintf("itrs_sweep%d.csv", gi), c)

			front := Frontier(New(Options{}).Sweep(ctx, specs))
			fj, fc := renderBoth(t, front)
			checkGolden(t, fmt.Sprintf("itrs_pareto%d.json", gi), fj)
			checkGolden(t, fmt.Sprintf("itrs_pareto%d.csv", gi), fc)
		})
	}
}
