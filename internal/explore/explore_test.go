package explore

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// testGrid is a 64-point SRAM grid of small, fast-to-solve caches:
// 4 capacities x 4 associativities x 2 block sizes x 2 modes.
func testGrid() Grid {
	return Grid{
		Base: core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
			MaxPipelineStages: 6},
		Capacities: []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10},
		Assocs:     []int{1, 2, 4, 8},
		Blocks:     []int{32, 64},
		Modes:      []core.AccessMode{core.Normal, core.Sequential},
	}
}

func TestGridExpandDeterministicOrder(t *testing.T) {
	g := testGrid()
	if got := g.Points(); got != 64 {
		t.Fatalf("Points = %d, want 64", got)
	}
	a, skipA := g.Expand()
	b, skipB := g.Expand()
	if skipA != 0 || skipB != 0 {
		t.Fatalf("unexpected skips: %d, %d", skipA, skipB)
	}
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("expanded %d/%d specs, want 64", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion not deterministic at %d", i)
		}
	}
	// Axis-major order: the last axis (mode) toggles fastest.
	if a[0].Mode != core.Normal || a[1].Mode != core.Sequential {
		t.Error("mode axis should toggle fastest")
	}
	if a[0].CapacityBytes != 32<<10 || a[63].CapacityBytes != 256<<10 {
		t.Error("capacity axis should be outermost of the varied axes")
	}
}

func TestGridExpandSkipsInfeasiblePoints(t *testing.T) {
	g := Grid{
		Base:       core.Spec{Node: tech.Node32, RAM: tech.SRAM, BlockBytes: 64, IsCache: true},
		Capacities: []int64{1000, 64 << 10}, // 1000 not divisible by 3 banks
		Banks:      []int{1, 3},
		Assocs:     []int{1},
	}
	specs, skipped := g.Expand()
	// 1000B: %1 ok but <64*1... 1000/1 >= 64 so feasible; %3 != 0 skip.
	// 64KB: ok with 1 bank; 64K%3 != 0 skip.
	if len(specs) != 2 || skipped != 2 {
		t.Fatalf("got %d specs, %d skipped; want 2, 2", len(specs), skipped)
	}
	// A point with fewer than one set per bank is dropped too.
	g2 := Grid{Base: core.Spec{RAM: tech.SRAM, BlockBytes: 64, Associativity: 16, CapacityBytes: 512}}
	if specs, skipped := g2.Expand(); len(specs) != 0 || skipped != 1 {
		t.Fatalf("sub-set point kept: %d specs, %d skipped", len(specs), skipped)
	}
}

// countingSolver wraps a fake solver and counts invocations.
func countingSolver(delay time.Duration) (*atomic.Int64, func(context.Context, core.Spec) (*core.Solution, error)) {
	var n atomic.Int64
	return &n, func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		n.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return &core.Solution{Spec: spec, AccessTime: float64(spec.CapacityBytes)}, nil
	}
}

func TestSolveCachesFingerprintEqualSpecs(t *testing.T) {
	n, solver := countingSolver(0)
	e := New(Options{Solver: solver})
	ctx := context.Background()

	a := core.Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64, IsCache: true, Associativity: 8}
	b := a
	b.Banks = 1 // defaulted field spelled out: same fingerprint
	b.Weights = &core.Weights{DynamicEnergy: 1, LeakagePower: 1, RandomCycle: 1, InterleaveCycle: 1}

	if _, cached, err := e.Solve(ctx, a); err != nil || cached {
		t.Fatalf("first solve: cached=%v err=%v", cached, err)
	}
	if _, cached, err := e.Solve(ctx, b); err != nil || !cached {
		t.Fatalf("fingerprint-equal solve not cached: cached=%v err=%v", cached, err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
	st := e.Stats()
	if st.Solves != 1 || st.CacheHits != 1 || st.CacheEntries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %g, want 0.5", st.HitRatio())
	}
}

func TestWarmSweepDoesZeroSolverCalls(t *testing.T) {
	n, solver := countingSolver(0)
	e := New(Options{Workers: 4, Solver: solver})
	specs, _ := testGrid().Expand()

	cold := e.Sweep(context.Background(), specs)
	coldSolves := n.Load()
	if coldSolves != int64(len(specs)) {
		t.Fatalf("cold sweep ran solver %d times for %d points", coldSolves, len(specs))
	}
	warm := e.Sweep(context.Background(), specs)
	if got := n.Load(); got != coldSolves {
		t.Fatalf("warm sweep ran the solver %d more times", got-coldSolves)
	}
	for i, r := range warm {
		if !r.Cached || r.Err != nil {
			t.Fatalf("warm point %d: cached=%v err=%v", i, r.Cached, r.Err)
		}
		if r.Solution != cold[i].Solution {
			t.Fatalf("warm point %d returned a different solution", i)
		}
	}
}

func TestParallelSweepMatchesSerialByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-solver sweep")
	}
	specs, skipped := testGrid().Expand()
	if len(specs) < 64 || skipped != 0 {
		t.Fatalf("grid expanded to %d specs (%d skipped), want >= 64", len(specs), skipped)
	}
	serial := New(Options{Workers: 1}).Sweep(context.Background(), specs)
	parallel := New(Options{Workers: 8}).Sweep(context.Background(), specs)

	var bufS, bufP bytes.Buffer
	if err := WriteCSV(&bufS, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&bufP, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufS.Bytes(), bufP.Bytes()) {
		t.Fatal("parallel sweep CSV differs from serial")
	}
	jS, err := AppendResultsJSON(nil, serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jP, err := AppendResultsJSON(nil, parallel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jS, jP) {
		t.Fatal("parallel sweep JSON differs from serial")
	}
}

func TestSweepRecordsPerPointErrors(t *testing.T) {
	e := New(Options{Workers: 2})
	specs := []core.Spec{
		{RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 64, Node: tech.Node32},
		{RAM: tech.COMMDRAM, CapacityBytes: 1 << 20, BlockBytes: 64, PageBits: 7, Node: tech.Node32}, // no solution
		{RAM: tech.SRAM, CapacityBytes: -1, BlockBytes: 64},                                          // invalid spec
	}
	res := e.Sweep(context.Background(), specs)
	if res[0].Err != nil || res[0].Solution == nil {
		t.Fatalf("point 0 should solve: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, core.ErrNoSolution) {
		t.Fatalf("point 1 err = %v, want ErrNoSolution", res[1].Err)
	}
	if res[2].Err == nil || res[2].Fingerprint != "" {
		t.Fatal("invalid spec must error without a fingerprint")
	}
	// Failures are cached (negative caching): re-sweeping stays warm.
	before := e.Stats().Solves
	res2 := e.Sweep(context.Background(), specs)
	if e.Stats().Solves != before {
		t.Fatal("re-sweep recomputed points")
	}
	if !errors.Is(res2[1].Err, core.ErrNoSolution) || !res2[1].Cached {
		t.Fatal("cached failure lost its error")
	}
}

func TestSweepCancellation(t *testing.T) {
	n, solver := countingSolver(5 * time.Millisecond)
	e := New(Options{Workers: 1, Solver: solver})
	specs, _ := testGrid().Expand()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Sweep(ctx, specs)
	if got := n.Load(); got > 2 {
		t.Fatalf("cancelled sweep still ran %d solves", got)
	}
	tail := 0
	for _, r := range res {
		if errors.Is(r.Err, context.Canceled) {
			tail++
		}
	}
	if tail < len(specs)-2 {
		t.Fatalf("only %d/%d points marked cancelled", tail, len(specs))
	}
}

func TestInFlightDedup(t *testing.T) {
	n, solver := countingSolver(20 * time.Millisecond)
	e := New(Options{Solver: solver})
	spec := core.Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}

	const callers = 16
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cached, err := e.Solve(context.Background(), spec)
			if err != nil {
				t.Error(err)
			}
			if cached {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := n.Load(); got != 1 {
		t.Fatalf("solver ran %d times under concurrency, want 1", got)
	}
	if hits.Load() != callers-1 {
		t.Fatalf("%d callers reported cached, want %d", hits.Load(), callers-1)
	}
}

// parkProbe is a live context that reports when Solve first asks for
// its Done channel: a caller of an in-flight fingerprint does so as it
// parks on the owner's entry.
type parkProbe struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkProbe() *parkProbe {
	return &parkProbe{Context: context.Background(), parked: make(chan struct{})}
}

func (p *parkProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parked) })
	return p.Context.Done()
}

// TestInFlightWaiterOutlivesOwnerCancel: callers parked on an in-flight
// solve whose owner's context ends (a client hang-up, a deadline) do
// not inherit that cancellation while their own contexts are live.
// The owner has forgotten the key, so one of them solves it again and
// the other parks on that solve: two solver runs in all, both waiters
// answered.
func TestInFlightWaiterOutlivesOwnerCancel(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	solver := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		if runs.Add(1) == 1 {
			close(started)
			<-ctx.Done() // the owner's solve runs until its context ends
			return nil, ctx.Err()
		}
		return &core.Solution{Spec: spec, AccessTime: 1}, nil
	}
	e := New(Options{Solver: solver})
	spec := core.Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}

	ownerCtx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := e.Solve(ownerCtx, spec)
		ownerErr <- err
	}()
	<-started

	const waiters = 2
	type answer struct {
		sol    *core.Solution
		cached bool
		err    error
	}
	answers := make(chan answer, waiters)
	for i := 0; i < waiters; i++ {
		p := newParkProbe()
		go func() {
			sol, cached, err := e.Solve(p, spec)
			answers <- answer{sol, cached, err}
		}()
		<-p.parked
	}
	cancel()

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	cached := 0
	for i := 0; i < waiters; i++ {
		a := <-answers
		if a.err != nil || a.sol == nil {
			t.Fatalf("waiter with a live context: sol=%v err=%v", a.sol, a.err)
		}
		if a.cached {
			cached++
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("solver ran %d times, want 2: the cancelled owner's and one re-solve", got)
	}
	if cached != waiters-1 {
		t.Fatalf("%d waiters reported cached, want %d", cached, waiters-1)
	}
	if _, cached, err := e.Solve(context.Background(), spec); err != nil || !cached {
		t.Fatalf("re-solved point not cached: cached=%v err=%v", cached, err)
	}
}

func TestEngineDefaultSolver(t *testing.T) {
	e := New(Options{})
	sol, cached, err := e.Solve(context.Background(),
		core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 64})
	if err != nil || cached || sol == nil {
		t.Fatalf("default solver failed: %v", err)
	}
	if sol.AccessTime <= 0 || sol.Area <= 0 {
		t.Fatalf("implausible solution %+v", sol)
	}
}
