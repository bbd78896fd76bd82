package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cactid/internal/array"
	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/tech"
)

// testGrid mirrors the explore package's 64-point SRAM grid: small,
// fast-to-solve caches with distinct fingerprints.
func testGrid() explore.Grid {
	return explore.Grid{
		Base: core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
			MaxPipelineStages: 6},
		Capacities: []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10},
		Assocs:     []int{1, 2, 4, 8},
		Blocks:     []int{32, 64},
		Modes:      []core.AccessMode{core.Normal, core.Sequential},
	}
}

// fakeSolver is a deterministic, instant stand-in for the circuit
// model, with a Data bank so exporters can render its solutions.
func fakeSolver(delay time.Duration) (*atomic.Int64, func(context.Context, core.Spec) (*core.Solution, error)) {
	var n atomic.Int64
	return &n, func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		n.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		c := float64(spec.CapacityBytes)
		return &core.Solution{Spec: spec,
			AccessTime: c, EReadPerAccess: 1 / c, LeakagePower: c, Area: c,
			Data: &array.Bank{Org: array.Org{Rows: 1, Cols: 1, Mux: 1,
				MatsPerSubbank: 1, Subbanks: 1, Mats: 1}, PipelineStages: 1}}, nil
	}
}

// fakeSpecs returns n specs with distinct fingerprints.
func fakeSpecs(n int) []core.Spec {
	specs := make([]core.Spec, n)
	for i := range specs {
		specs[i] = core.Spec{RAM: tech.SRAM, Node: tech.Node32,
			CapacityBytes: int64(i+1) << 10, BlockBytes: 64}
	}
	return specs
}

func engineWorker(name string, delay time.Duration) (*EngineWorker, *atomic.Int64) {
	n, solver := fakeSolver(delay)
	return &EngineWorker{WorkerName: name,
		Engine: explore.New(explore.Options{Workers: 2, Solver: solver})}, n
}

// TestRingMinimalReassignment: removing one worker from the ring must
// move only that worker's keys; every other spec keeps its owner, so
// surviving workers' caches stay warm through membership changes.
func TestRingMinimalReassignment(t *testing.T) {
	names := []string{"node-a", "node-b", "node-c", "node-d"}
	full := buildRing(names)
	reduced := buildRing(names[:3]) // node-d removed; slots 0..2 unchanged

	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("fingerprint-%d", i)
	}
	balance := make(map[int]int)
	for _, k := range keys {
		before := full.owner(k)
		balance[before]++
		if before == 3 {
			continue // node-d's keys must move somewhere
		}
		if after := reduced.owner(k); after != before {
			t.Fatalf("key %q moved from slot %d to %d though its owner survived",
				k, before, after)
		}
	}
	for slot := range names {
		if balance[slot] == 0 {
			t.Fatalf("slot %d owns no keys out of %d: ring badly unbalanced (%v)",
				slot, len(keys), balance)
		}
	}
}

// TestFabricSweepByteIdenticalToSingleNode is the core guarantee: a
// sweep sharded across three workers serializes byte-for-byte like a
// single-node Engine sweep of the same specs — for the full result set
// and for the Pareto frontier — and the onResult hook observes every
// point exactly once. Runs the real circuit model end to end.
func TestFabricSweepByteIdenticalToSingleNode(t *testing.T) {
	specs, _ := testGrid().Expand()

	single := explore.New(explore.Options{Workers: 4}).Sweep(context.Background(), specs)

	workers := make([]Worker, 3)
	for i := range workers {
		workers[i] = &EngineWorker{WorkerName: fmt.Sprintf("node-%d", i),
			Engine: explore.New(explore.Options{Workers: 2})}
	}
	co := New(Config{Workers: workers, ChunkSize: 4})
	defer co.Close()

	observed := make([]int, len(specs))
	distributed := co.Sweep(context.Background(), specs, func(r explore.Result) { observed[r.Index]++ })

	assertSameBytes(t, single, distributed, "full result set")
	assertSameBytes(t, explore.Frontier(single), explore.Frontier(distributed), "frontier")
	for i, n := range observed {
		if n != 1 {
			t.Fatalf("onResult observed point %d %d times", i, n)
		}
	}

	st := co.Status()
	if st.DuplicateResults != 0 {
		t.Fatalf("%d duplicate deliveries", st.DuplicateResults)
	}
	if st.HealthyWorkers != 3 {
		t.Fatalf("healthy workers = %d, want 3", st.HealthyWorkers)
	}
}

func assertSameBytes(t *testing.T, want, got []explore.Result, what string) {
	t.Helper()
	var wj, gj, wc, gc bytes.Buffer
	if err := explore.WriteJSON(&wj, want); err != nil {
		t.Fatal(err)
	}
	if err := explore.WriteJSON(&gj, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj.Bytes(), gj.Bytes()) {
		t.Fatalf("%s: JSON differs from single-node output", what)
	}
	if err := explore.WriteCSV(&wc, want); err != nil {
		t.Fatal(err)
	}
	if err := explore.WriteCSV(&gc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wc.Bytes(), gc.Bytes()) {
		t.Fatalf("%s: CSV differs from single-node output", what)
	}
}

// TestFabricWorkStealing: with one straggler worker, the fast worker
// must steal from its queue, and every point still solves exactly
// once cluster-wide.
func TestFabricWorkStealing(t *testing.T) {
	slow, nSlow := engineWorker("slow-node", 3*time.Millisecond)
	fast, nFast := engineWorker("fast-node", 0)
	co := New(Config{Workers: []Worker{slow, fast}, ChunkSize: 1})
	defer co.Close()

	specs := fakeSpecs(48)
	results := co.Sweep(context.Background(), specs, nil)
	for i, r := range results {
		if r.Err != nil || r.Solution == nil {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}
	if total := nSlow.Load() + nFast.Load(); total != int64(len(specs)) {
		t.Fatalf("cluster solved %d points for %d specs (exactly-once violated)",
			total, len(specs))
	}
	st := co.Status()
	if st.ChunksStolen == 0 {
		t.Fatal("fast worker never stole from the straggler")
	}
	if st.DuplicateResults != 0 {
		t.Fatalf("%d duplicate deliveries", st.DuplicateResults)
	}
}

// TestFabricWorkerFailureReroutes kills one worker's transport after
// its first chunk; the sweep must still deliver every point exactly
// once, rerouting the dead worker's queue to the survivors. The
// survivors' first dispatches wait for the kill, so they cannot steal
// node-1's whole queue before its second dispatch fails.
func TestFabricWorkerFailureReroutes(t *testing.T) {
	w0, n0 := engineWorker("node-0", 0)
	w1, n1 := engineWorker("node-1", 0)
	w2, n2 := engineWorker("node-2", 0)
	var batches atomic.Int64
	killed := make(chan struct{})
	var kill sync.Once
	w1.Fail = func() error {
		if batches.Add(1) > 1 {
			kill.Do(func() { close(killed) })
			return errors.New("connection refused")
		}
		return nil
	}
	afterKill := func() error { <-killed; return nil }
	w0.Fail, w2.Fail = afterKill, afterKill
	co := New(Config{Workers: []Worker{w0, w1, w2}, ChunkSize: 4})
	defer co.Close()

	specs := fakeSpecs(96)
	results := co.Sweep(context.Background(), specs, nil)
	for i, r := range results {
		if r.Err != nil || r.Solution == nil {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}
	if total := n0.Load() + n1.Load() + n2.Load(); total != int64(len(specs)) {
		t.Fatalf("cluster solved %d points for %d specs (exactly-once violated)",
			total, len(specs))
	}
	st := co.Status()
	if st.DispatchFailures == 0 || st.ChunksRerouted == 0 {
		t.Fatalf("dead worker produced no reroutes: %+v", st)
	}
	if st.DuplicateResults != 0 {
		t.Fatalf("%d duplicate deliveries", st.DuplicateResults)
	}
	if st.HealthyWorkers != 2 {
		t.Fatalf("healthy workers = %d, want 2 after the kill", st.HealthyWorkers)
	}

	// A heartbeat against the revived transport heals the worker.
	w1.Fail = nil
	co.HeartbeatNow()
	if got := co.Status().HealthyWorkers; got != 3 {
		t.Fatalf("healthy workers after recovery = %d, want 3", got)
	}
}

// TestFabricAllWorkersDeadFallsBackLocal: when every worker is
// unreachable the coordinator's own engine finishes the sweep.
func TestFabricAllWorkersDeadFallsBackLocal(t *testing.T) {
	dead := func(name string) *EngineWorker {
		w, _ := engineWorker(name, 0)
		w.Fail = func() error { return errors.New("no route to host") }
		return w
	}
	nLocal, localSolver := fakeSolver(0)
	local := explore.New(explore.Options{Workers: 2, Solver: localSolver})
	co := New(Config{Workers: []Worker{dead("node-0"), dead("node-1")},
		ChunkSize: 8, Local: local.Sweep})
	defer co.Close()

	specs := fakeSpecs(32)
	results := co.Sweep(context.Background(), specs, nil)
	for i, r := range results {
		if r.Err != nil || r.Solution == nil {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}
	if nLocal.Load() != int64(len(specs)) {
		t.Fatalf("local fallback solved %d points, want %d", nLocal.Load(), len(specs))
	}
	st := co.Status()
	if st.LocalPoints != int64(len(specs)) {
		t.Fatalf("LocalPoints = %d, want %d", st.LocalPoints, len(specs))
	}
}

// TestFabricNoWorkersUsesLocal covers the degenerate topology: a
// coordinator with an empty worker set is just a local engine.
func TestFabricNoWorkersUsesLocal(t *testing.T) {
	nLocal, localSolver := fakeSolver(0)
	local := explore.New(explore.Options{Workers: 2, Solver: localSolver})
	co := New(Config{Local: local.Sweep})
	defer co.Close()
	results := co.Sweep(context.Background(), fakeSpecs(8), nil)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}
	if nLocal.Load() != 8 {
		t.Fatalf("local engine solved %d points, want 8", nLocal.Load())
	}
}

// TestFabricSweepCancellation: a canceled context ends the sweep with
// context errors on the undelivered tail, like the single-node sweep.
func TestFabricSweepCancellation(t *testing.T) {
	w, _ := engineWorker("node-0", 2*time.Millisecond)
	co := New(Config{Workers: []Worker{w}, ChunkSize: 4})
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := co.Sweep(ctx, fakeSpecs(32), nil)
	canceled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled < len(results)-8 {
		t.Fatalf("only %d/%d points carry the cancellation", canceled, len(results))
	}
}

// TestFabricChaosKillMidSweep is the cluster fault drill: three
// workers, one dying mid-sweep, plus seeded chaos faults on the
// dispatch and steal points. The merged output must stay
// byte-identical to a single-node sweep, with every point solved
// exactly once cluster-wide (per the engines' Solves counters) — the
// failure history must be invisible in the results.
func TestFabricChaosKillMidSweep(t *testing.T) {
	specs, _ := testGrid().Expand()
	single := explore.New(explore.Options{Workers: 4}).Sweep(context.Background(), specs)

	workers := make([]*EngineWorker, 3)
	for i := range workers {
		workers[i] = &EngineWorker{WorkerName: fmt.Sprintf("node-%d", i),
			Engine: explore.New(explore.Options{Workers: 2})}
	}
	// node-1's transport dies after its second successful batch.
	var batches atomic.Int64
	workers[1].Fail = func() error {
		if batches.Add(1) > 2 {
			return errors.New("connection reset by peer")
		}
		return nil
	}
	inj := chaos.New(42,
		chaos.Rule{Point: chaos.FabricDispatch, Fault: chaos.Cancel, Rate: 0.2},
		chaos.Rule{Point: chaos.FabricSteal, Fault: chaos.Cancel, Rate: 0.5},
	)
	local := explore.New(explore.Options{Workers: 2})
	co := New(Config{
		Workers:   []Worker{workers[0], workers[1], workers[2]},
		ChunkSize: 2, Chaos: inj, Local: local.Sweep,
	})
	defer co.Close()

	distributed := co.Sweep(context.Background(), specs, nil)

	assertSameBytes(t, single, distributed, "post-failure result set")
	assertSameBytes(t, explore.Frontier(single), explore.Frontier(distributed), "post-failure frontier")

	var clusterSolves int64
	for _, w := range workers {
		clusterSolves += w.Engine.Stats().Solves
	}
	clusterSolves += local.Stats().Solves
	if clusterSolves != int64(len(specs)) {
		t.Fatalf("cluster solved %d points for %d specs (exactly-once violated)",
			clusterSolves, len(specs))
	}
	st := co.Status()
	if st.DuplicateResults != 0 {
		t.Fatalf("%d duplicate deliveries", st.DuplicateResults)
	}
	if st.DispatchFailures == 0 {
		t.Fatal("chaos schedule fired no dispatch faults; seed drifted?")
	}
	snap := inj.Snapshot()
	if snap[chaos.FabricDispatch].Cancels == 0 {
		t.Fatalf("fabric.dispatch never fired: %+v", snap)
	}
}

// TestFabricClusterStats aggregates worker engine counters through
// the Worker interface with conservation: merged Solves equals the
// points the cluster solved.
func TestFabricClusterStats(t *testing.T) {
	w0, _ := engineWorker("node-0", 0)
	w1, _ := engineWorker("node-1", 0)
	co := New(Config{Workers: []Worker{w0, w1}, ChunkSize: 4})
	defer co.Close()
	specs := fakeSpecs(40)
	co.Sweep(context.Background(), specs, nil)
	agg := co.ClusterStats(context.Background())
	if agg.Solves != int64(len(specs)) {
		t.Fatalf("merged cluster Solves = %d, want %d", agg.Solves, len(specs))
	}
	if agg.CacheEntries != len(specs) {
		t.Fatalf("merged CacheEntries = %d, want %d", agg.CacheEntries, len(specs))
	}
}

// TestWireRoundTripPreservesErrors: sentinel errors keep their
// errors.Is identity and exact message across the wire.
func TestWireRoundTripPreservesErrors(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{fmt.Errorf("point: %w", core.ErrNoSolution), core.ErrNoSolution},
		{fmt.Errorf("sweep: %w", context.Canceled), context.Canceled},
		{fmt.Errorf("sweep: %w", context.DeadlineExceeded), context.DeadlineExceeded},
		{fmt.Errorf("worker: %w", explore.ErrSolverPanic), explore.ErrSolverPanic},
	}
	for _, tc := range cases {
		in := explore.Result{Index: 3, Err: tc.err}
		out := FromWire(ToWire(in))
		if out.Err == nil || out.Err.Error() != tc.err.Error() {
			t.Fatalf("message lost: %v -> %v", tc.err, out.Err)
		}
		if !errors.Is(out.Err, tc.sentinel) {
			t.Fatalf("errors.Is(%v, %v) lost across the wire", out.Err, tc.sentinel)
		}
	}
}
