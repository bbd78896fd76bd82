package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cactid/internal/array"
	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/store"
	"cactid/internal/tech"
)

// tierSolver is a counting fake whose solutions carry the full
// persistable surface (Data org + pipeline stages), unlike
// countingSolver's skeleton results which the durable tier rejects.
func tierSolver() (*atomic.Int64, func(context.Context, core.Spec) (*core.Solution, error)) {
	var n atomic.Int64
	return &n, func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		n.Add(1)
		return &core.Solution{
			Spec:       spec,
			Data:       &array.Bank{Org: array.Org{Rows: 128, Cols: 256, Mux: 2, Mats: 4, Subbanks: 2, MatsPerSubbank: 2}, PipelineStages: 3},
			AccessTime: float64(spec.CapacityBytes),
		}, nil
	}
}

func openTier(t *testing.T, dir string) *store.Solutions {
	t.Helper()
	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return store.NewSolutions(s)
}

func TestTier1ServesRestartWithZeroSolves(t *testing.T) {
	dir := t.TempDir()
	spec := core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10,
		BlockBytes: 64, Associativity: 4, IsCache: true}

	n1, solver1 := tierSolver()
	e1 := New(Options{Solver: solver1, Tier1: openTier(t, dir)})
	sol1, cached, err := e1.Solve(context.Background(), spec)
	if err != nil || cached {
		t.Fatalf("first solve: cached=%v err=%v", cached, err)
	}
	if n1.Load() != 1 {
		t.Fatalf("solver calls = %d, want 1", n1.Load())
	}
	st := e1.Stats()
	if st.Tier1Hits != 0 || st.Tier1Misses != 1 {
		t.Fatalf("first engine tier1 hits/misses = %d/%d, want 0/1", st.Tier1Hits, st.Tier1Misses)
	}

	// A second engine with a cold tier 0 on the same store models a
	// process restart: the result must come from tier 1, with zero
	// solver invocations, marked cached.
	n2, solver2 := tierSolver()
	e2 := New(Options{Solver: solver2, Tier1: openTier(t, dir)})
	sol2, cached, err := e2.Solve(context.Background(), spec)
	if err != nil || !cached {
		t.Fatalf("restart solve: cached=%v err=%v", cached, err)
	}
	if n2.Load() != 0 {
		t.Fatalf("solver ran %d times after restart, want 0", n2.Load())
	}
	st = e2.Stats()
	if st.Tier1Hits != 1 || st.Solves != 0 {
		t.Fatalf("restart stats = %+v", st)
	}
	if sol2.AccessTime != sol1.AccessTime || sol2.Data.Org != sol1.Data.Org ||
		sol2.Data.PipelineStages != sol1.Data.PipelineStages {
		t.Fatalf("rehydrated solution drifted: %+v vs %+v", sol2, sol1)
	}

	// Within e2 the tier-1 hit filled tier 0: a repeat costs nothing.
	if _, cached, _ := e2.Solve(context.Background(), spec); !cached {
		t.Fatal("tier-1 hit did not fill tier 0")
	}
	if hits := e2.Stats().Tier1Hits; hits != 1 {
		t.Fatalf("tier-1 consulted again on a tier-0 hit: %d", hits)
	}
}

func TestTier1PersistsNoSolutionVerdict(t *testing.T) {
	dir := t.TempDir()
	var n atomic.Int64
	solver := func(context.Context, core.Spec) (*core.Solution, error) {
		n.Add(1)
		return nil, fmt.Errorf("spec rejected: %w", core.ErrNoSolution)
	}
	spec := core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 64}

	e1 := New(Options{Solver: solver, Tier1: openTier(t, dir)})
	_, _, err1 := e1.Solve(context.Background(), spec)
	if !errors.Is(err1, core.ErrNoSolution) {
		t.Fatalf("err = %v", err1)
	}

	e2 := New(Options{Solver: solver, Tier1: openTier(t, dir)})
	_, cached, err2 := e2.Solve(context.Background(), spec)
	if !cached || n.Load() != 1 {
		t.Fatalf("verdict not served from tier 1: cached=%v solves=%d", cached, n.Load())
	}
	if !errors.Is(err2, core.ErrNoSolution) || err2.Error() != err1.Error() {
		t.Fatalf("rehydrated error drifted: %q vs %q", err2, err1)
	}
}

func TestTier1DoesNotPersistCancellation(t *testing.T) {
	dir := t.TempDir()
	solver := func(ctx context.Context, _ core.Spec) (*core.Solution, error) {
		return nil, context.Canceled
	}
	spec := core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 64}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(Options{Solver: solver, Tier1: store.NewSolutions(st)})
	if _, _, err := e.Solve(context.Background(), spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st.Len() != 0 {
		t.Fatal("cancellation persisted to the durable tier")
	}
}

func TestTier1ReadFaultAbsorbedAsMiss(t *testing.T) {
	dir := t.TempDir()
	spec := core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10,
		BlockBytes: 64, Associativity: 4, IsCache: true}

	n1, solver1 := tierSolver()
	e1 := New(Options{Solver: solver1, Tier1: openTier(t, dir)})
	if _, _, err := e1.Solve(context.Background(), spec); err != nil || n1.Load() != 1 {
		t.Fatalf("seed solve: err=%v n=%d", err, n1.Load())
	}

	// Every tier-1 read faults: the engine must fall through to the
	// solver and still answer correctly, with no surfaced error.
	inj := chaos.New(99, chaos.Rule{Point: chaos.StoreGet, Fault: chaos.Cancel, Rate: 1})
	s, err := store.Open(store.Config{Dir: dir, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n2, solver2 := tierSolver()
	e2 := New(Options{Solver: solver2, Tier1: store.NewSolutions(s)})
	sol, cached, err := e2.Solve(context.Background(), spec)
	if err != nil || sol == nil {
		t.Fatalf("solve under read faults: err=%v", err)
	}
	if cached || n2.Load() != 1 {
		t.Fatalf("expected solver fallback: cached=%v n=%d", cached, n2.Load())
	}
}

func TestTier1SweepByteIdenticalAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	dir := t.TempDir()
	g := Grid{
		Base: core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
			MaxPipelineStages: 6},
		Capacities: []int64{32 << 10, 64 << 10},
		Assocs:     []int{1, 4},
		Blocks:     []int{64},
	}
	ctx := context.Background()

	specs, _ := g.Expand()
	e1 := New(Options{Tier1: openTier(t, dir)})
	e1.Sweep(ctx, specs) // cold pass populates the store
	warm1 := e1.Sweep(ctx, specs)
	a, err := AppendResultsJSON(nil, warm1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	// Fresh engine + reopened store = restarted process. Its sweep
	// must be byte-identical to the first process's warm sweep (both
	// report cached=true everywhere) with zero solver invocations.
	e2 := New(Options{Tier1: openTier(t, dir)})
	warm2 := e2.Sweep(ctx, specs)
	b, err := AppendResultsJSON(nil, warm2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("restart sweep not byte-identical:\n%s\nvs\n%s", a, b)
	}
	if st := e2.Stats(); st.Solves != 0 || st.Tier1Hits != int64(len(warm2)) {
		t.Fatalf("restart stats = %+v, want all tier-1 hits", st)
	}

	var csvA, csvB bytes.Buffer
	if err := WriteCSV(&csvA, warm1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvB, warm2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Fatal("restart CSV export not byte-identical")
	}
}

// pinnedOutputDigest is the SHA-256 over the reference solves' metric
// surface, formatted to 7 significant digits — the same surface
// TestSolvePinnedOutput pins field by field.
func pinnedOutputDigest(t *testing.T) string {
	t.Helper()
	e := New(Options{})
	specs := []core.Spec{
		{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10,
			BlockBytes: 64, Associativity: 4, Banks: 1, IsCache: true, MaxPipelineStages: 6},
		{Node: tech.Node32, RAM: tech.LPDRAM, CapacityBytes: 16 << 20,
			BlockBytes: 64, Associativity: 8, Banks: 8, IsCache: true,
			Mode: core.Sequential, PageBits: 8192, MaxPipelineStages: 6},
	}
	h := sha256.New()
	for _, spec := range specs {
		sol, _, err := e.Solve(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%.6e|%.6e|%.6e|%.6e|%.6e|%.6e|%.6e|%.6e|%d\n",
			sol.AccessTime, sol.RandomCycle, sol.InterleaveCycle,
			sol.Area, sol.AreaEff, sol.EReadPerAccess, sol.EWritePerAccess,
			sol.LeakagePower, sol.Data.PipelineStages)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelVersionTripwire ties core.ModelVersion to a digest of the
// pinned reference outputs: a numeric change breaks the digest, and
// fixing this test forces the pinned pair below — version and digest
// — to move together in the same commit. Persisted store records are
// keyed by ModelVersion, so this is what keeps stale durable results
// unreachable after a model change.
func TestModelVersionTripwire(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	// Version 2 bumped for the technology-provider wire-schema change
	// (Spec.Technology, Solution.WriteTime/WriteEndurance); the digest
	// is unchanged because the ITRS numbers did not move — the provider
	// refactor is byte-identical (TestProviderITRSByteIdentical).
	const (
		pinnedVersion = 2
		pinnedDigest  = "77373d039c5170a40f9bc1f94afcf0612c9ddd34091d9e59ff1c81ea940d0cec"
	)
	if core.ModelVersion != pinnedVersion {
		t.Fatalf("core.ModelVersion = %d but the tripwire pins %d: update pinnedVersion AND pinnedDigest together",
			core.ModelVersion, pinnedVersion)
	}
	if got := pinnedOutputDigest(t); got != pinnedDigest {
		t.Fatalf("pinned-output digest drifted:\n got %s\nwant %s\nNumbers moved: bump core.ModelVersion and re-pin both constants in this commit.",
			got, pinnedDigest)
	}
}
