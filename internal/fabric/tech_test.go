package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/tech"
)

// crossTechGrid sweeps one geometry across three technology
// providers — the cross-technology scenario the provider layer
// exists for.
func crossTechGrid() explore.Grid {
	return explore.Grid{
		Base: core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
			MaxPipelineStages: 6},
		Techs:      []string{"itrs-sram", "stt-ram", "gain-cell"},
		Capacities: []int64{64 << 10, 128 << 10},
		Assocs:     []int{4},
		Blocks:     []int{64},
	}
}

// TestFabricCrossTechParetoByteIdentical: a cross-technology sweep
// sharded over a two-worker in-process fabric must serialize — full
// result set and Pareto frontier — byte-for-byte like a single-node
// sweep of the same grid. Runs the real circuit model on all three
// providers.
func TestFabricCrossTechParetoByteIdentical(t *testing.T) {
	specs, skipped := crossTechGrid().Expand()
	if len(specs) != 6 || skipped != 0 {
		t.Fatalf("grid expanded to %d specs, %d skipped", len(specs), skipped)
	}

	single := explore.New(explore.Options{Workers: 4}).Sweep(context.Background(), specs)

	workers := make([]Worker, 2)
	for i := range workers {
		workers[i] = &EngineWorker{WorkerName: fmt.Sprintf("node-%d", i),
			Engine: explore.New(explore.Options{Workers: 2})}
	}
	co := New(Config{Workers: workers, ChunkSize: 1})
	defer co.Close()

	distributed := co.Sweep(context.Background(), specs, nil)
	frontier := explore.Frontier(distributed)

	assertSameBytes(t, single, distributed, "cross-tech result set")
	assertSameBytes(t, explore.Frontier(single), frontier, "cross-tech frontier")

	// The frontier spans technologies: with asymmetric NVM writes and
	// gain-cell refresh in play, no single provider dominates all axes.
	seen := map[string]bool{}
	for _, r := range frontier {
		seen[r.Spec.Technology] = true
	}
	if len(seen) < 2 {
		t.Errorf("frontier collapsed to one technology: %v", seen)
	}
}

// TestWireRoundTripPreservesTechnology: the technology axis and the
// asymmetric-write metrics must survive the fabric wire (the actual
// JSON encode/decode a worker response goes through), and the
// reconstructed result must keep the spec's store identity — the
// fingerprint workers and coordinators key caches by.
func TestWireRoundTripPreservesTechnology(t *testing.T) {
	e := explore.New(explore.Options{})
	spec := core.Spec{Node: tech.Node32, RAM: tech.SRAM, Technology: "stt-ram",
		CapacityBytes: 64 << 10, BlockBytes: 64, Associativity: 4,
		IsCache: true, MaxPipelineStages: 6}
	sol, _, err := e.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	in := explore.Result{Index: 7, Spec: sol.Spec, Fingerprint: fp, Solution: sol}

	blob, err := json.Marshal(ToWire(in))
	if err != nil {
		t.Fatal(err)
	}
	var w WireResult
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	out := FromWire(w)

	if out.Spec.Technology != "stt-ram" || out.Solution.Spec.Technology != "stt-ram" {
		t.Fatalf("technology lost across the wire: %q / %q",
			out.Spec.Technology, out.Solution.Spec.Technology)
	}
	if out.Solution.WriteTime != sol.WriteTime || out.Solution.WriteEndurance != sol.WriteEndurance {
		t.Fatalf("write metrics drifted: (%g, %g) vs (%g, %g)",
			out.Solution.WriteTime, out.Solution.WriteEndurance, sol.WriteTime, sol.WriteEndurance)
	}
	fp2, err := out.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Fatalf("store identity changed across the wire: %s vs %s", fp2, fp)
	}

	// The same spec without the technology axis is a different store
	// key: a mixed fleet must never serve an STT-RAM answer from an
	// ITRS record or vice versa.
	plain := spec
	plain.Technology = ""
	if fpPlain, _ := plain.Fingerprint(); fpPlain == fp {
		t.Fatal("ITRS and stt-ram specs share a fingerprint")
	}
}
