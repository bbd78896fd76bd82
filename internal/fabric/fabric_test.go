package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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

// TestRendezvousMinimalReassignment: for 2 to 8 workers, each owns
// its fair share of 20,000 fingerprints within 2 percentage points,
// and losing one worker moves only the fingerprints it owned; every
// other spec keeps its owner, so surviving workers' caches stay warm
// through membership changes.
func TestRendezvousMinimalReassignment(t *testing.T) {
	fps := make([]string, 20000)
	for i, spec := range fakeSpecs(len(fps)) {
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	for n := 2; n <= 8; n++ {
		workers := make([]Worker, n)
		for i := range workers {
			workers[i] = &EngineWorker{WorkerName: fmt.Sprintf("node-%d", i)}
		}
		co := New(Config{Workers: workers})
		before := make([]Worker, len(fps))
		owned := make(map[Worker]int)
		for k, fp := range fps {
			before[k] = co.Owner(fp)
			owned[before[k]]++
		}
		for _, w := range workers {
			share := float64(owned[w]) / float64(len(fps))
			if math.Abs(share-1/float64(n)) > 0.02 {
				t.Errorf("%d workers: %s owns %.1f%% of the fingerprints, want %.1f%% within 2 points",
					n, w.Name(), 100*share, 100/float64(n))
			}
		}

		// node-0 dies, and a heartbeat takes it out of the owners.
		dead := workers[0].(*EngineWorker)
		dead.Fail = func() error { return errors.New("connection refused") }
		co.HeartbeatNow()
		for k, fp := range fps {
			after := co.Owner(fp)
			if after == dead {
				t.Fatalf("%d workers: fingerprint %s still owned by the dead worker", n, fp)
			}
			if before[k] != dead && after != before[k] {
				t.Fatalf("%d workers: fingerprint %s moved from %s to %s though its owner survived",
					n, fp, before[k].Name(), after.Name())
			}
		}
		co.Close()
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
	co := New(Config{Workers: workers})
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
	wj, err := explore.AppendResultsJSON(nil, want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gj, err := explore.AppendResultsJSON(nil, got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("%s: JSON differs from single-node output", what)
	}
	var wc, gc bytes.Buffer
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

// TestFabricOneBatchPerOwner: a healthy sweep over three workers
// sends each owner its whole share as one batch and equals a
// single-node sweep. A repeat sends the same shares to the same
// owners, which answer from their caches, so the warm sweep matches
// the single node's warm sweep too, cached flags included.
func TestFabricOneBatchPerOwner(t *testing.T) {
	_, solver := fakeSolver(0)
	single := explore.New(explore.Options{Workers: 2, Solver: solver})
	workers := make([]Worker, 3)
	solves := make([]*atomic.Int64, 3)
	for i := range workers {
		workers[i], solves[i] = engineWorker(fmt.Sprintf("node-%d", i), 0)
	}
	co := New(Config{Workers: workers})
	defer co.Close()

	specs := fakeSpecs(96)
	for sweep := int64(1); sweep <= 2; sweep++ {
		want := single.Sweep(context.Background(), specs)
		got := co.Sweep(context.Background(), specs, nil)
		assertSameBytes(t, want, got, fmt.Sprintf("sweep %d", sweep))

		st := co.Status()
		if st.ChunksDispatched != 3*sweep {
			t.Fatalf("sweep %d: %d dispatches in all, want one per owner (%d)",
				sweep, st.ChunksDispatched, 3*sweep)
		}
		for _, ws := range st.Workers {
			if ws.Chunks != sweep || ws.Points == 0 {
				t.Fatalf("sweep %d: worker %s took %d batches and %d points, want %d batches",
					sweep, ws.Name, ws.Chunks, ws.Points, sweep)
			}
		}
		var total int64
		for _, n := range solves {
			total += n.Load()
		}
		if total != int64(len(specs)) {
			t.Fatalf("sweep %d: cluster solved %d points for %d specs (exactly-once violated)",
				sweep, total, len(specs))
		}
	}
}

// TestFabricWorkerFailureReroutes: one worker's transport is dead.
// Its batch is sharded again over the two survivors and every point
// is delivered exactly once. A repeat sweep shards the dead worker's
// points the same way, so the survivors answer them from their
// caches, and its second failure in a row marks it unhealthy. A
// heartbeat against the revived transport heals it.
func TestFabricWorkerFailureReroutes(t *testing.T) {
	w0, n0 := engineWorker("node-0", 0)
	w1, n1 := engineWorker("node-1", 0)
	w2, n2 := engineWorker("node-2", 0)
	w1.Fail = func() error { return errors.New("connection refused") }
	co := New(Config{Workers: []Worker{w0, w1, w2}})
	defer co.Close()

	specs := fakeSpecs(96)
	for sweep := 1; sweep <= 2; sweep++ {
		results := co.Sweep(context.Background(), specs, nil)
		for i, r := range results {
			if r.Err != nil || r.Solution == nil {
				t.Fatalf("sweep %d: point %d failed: %v", sweep, i, r.Err)
			}
			if r.Cached != (sweep == 2) {
				t.Fatalf("sweep %d: point %d cached=%v", sweep, i, r.Cached)
			}
		}
		if total := n0.Load() + n1.Load() + n2.Load(); total != int64(len(specs)) {
			t.Fatalf("sweep %d: cluster solved %d points for %d specs (exactly-once violated)",
				sweep, total, len(specs))
		}
	}
	st := co.Status()
	if st.DispatchFailures != 2 || st.ChunksRerouted != 2 {
		t.Fatalf("dead worker: %d dispatch failures and %d reroutes, want 2 of each: %+v",
			st.DispatchFailures, st.ChunksRerouted, st)
	}
	if st.DuplicateResults != 0 {
		t.Fatalf("%d duplicate deliveries", st.DuplicateResults)
	}
	if st.HealthyWorkers != 2 {
		t.Fatalf("healthy workers = %d, want 2 after two failures in a row", st.HealthyWorkers)
	}

	// A heartbeat against the revived transport heals the worker.
	w1.Fail = nil
	co.HeartbeatNow()
	if got := co.Status().HealthyWorkers; got != 3 {
		t.Fatalf("healthy workers after recovery = %d, want 3", got)
	}
}

// TestFabricBudgetCountsRegisteredWorkers: the attempt budget counts
// the workers a sweep has, not those the coordinator was built with.
// A coordinator built empty gains three workers by Register, two of
// which fail every dispatch. A point may take three dispatches to
// reach the third worker, and every point must come from it, none
// from the local fallback.
func TestFabricBudgetCountsRegisteredWorkers(t *testing.T) {
	nLocal, localSolver := fakeSolver(0)
	co := New(Config{Local: explore.New(explore.Options{Workers: 2, Solver: localSolver}).Sweep})
	defer co.Close()
	down := func() error { return errors.New("connection refused") }
	w0, _ := engineWorker("node-0", 0)
	w1, _ := engineWorker("node-1", 0)
	w2, n2 := engineWorker("node-2", 0)
	w0.Fail, w1.Fail = down, down
	for _, w := range []Worker{w0, w1, w2} {
		co.Register(w)
	}

	specs := fakeSpecs(48)
	for i, r := range co.Sweep(context.Background(), specs, nil) {
		if r.Err != nil || r.Solution == nil {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}
	if n2.Load() != int64(len(specs)) {
		t.Fatalf("the working worker solved %d of %d points", n2.Load(), len(specs))
	}
	if st := co.Status(); st.LocalPoints != 0 || nLocal.Load() != 0 {
		t.Fatalf("local fallback took %d points (solved %d) while a worker was healthy",
			st.LocalPoints, nLocal.Load())
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
	co := New(Config{Workers: []Worker{dead("node-0"), dead("node-1")}, Local: local.Sweep})
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
	co := New(Config{Workers: []Worker{w}})
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

// TestFabricSweepDeadlineSparesWorkers: a sweep whose own deadline
// cuts off its batch does not count that against the worker. The
// worker's handler outlives every request, so each of two sweeps with
// a 50 ms deadline fails its one batch in transport; the worker must
// stay healthy with no dispatch failure, or the next sweep would go
// to the local fallback until a heartbeat healed it.
func TestFabricSweepDeadlineSparesWorkers(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release) // before Close, which waits for the handlers
	co := New(Config{Workers: []Worker{NewHTTPWorker(srv.URL)}})
	defer co.Close()

	for range 2 {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		results := co.Sweep(ctx, fakeSpecs(4), nil)
		cancel()
		for _, r := range results {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("point %d: err %v, want the sweep's deadline", r.Index, r.Err)
			}
		}
	}
	st := co.Status()
	if st.HealthyWorkers != 1 || st.DispatchFailures != 0 || st.Workers[0].DispatchFailures != 0 {
		t.Fatalf("after two sweeps cut off by their own deadline: %d healthy workers, %d dispatch failures (worker %d), want 1 and 0",
			st.HealthyWorkers, st.DispatchFailures, st.Workers[0].DispatchFailures)
	}
	if st.ChunksDispatched != 2 || st.LocalPoints != 0 {
		t.Fatalf("%d batches dispatched and %d points solved locally, want 2 and 0", st.ChunksDispatched, st.LocalPoints)
	}
}

// TestFabricChaosKillMidSweep is the cluster fault drill: three
// workers, one whose transport dies once the sweep has sharded its
// points, plus seeded chaos faults on every dispatch. The merged
// output must stay byte-identical to a single-node sweep, with every
// point solved exactly once cluster-wide (per the engines' Solves
// counters) — the failure history must be invisible in the results.
func TestFabricChaosKillMidSweep(t *testing.T) {
	specs, _ := testGrid().Expand()
	single := explore.New(explore.Options{Workers: 4}).Sweep(context.Background(), specs)

	workers := make([]*EngineWorker, 3)
	for i := range workers {
		workers[i] = &EngineWorker{WorkerName: fmt.Sprintf("node-%d", i),
			Engine: explore.New(explore.Options{Workers: 2})}
	}
	workers[1].Fail = func() error { return errors.New("connection reset by peer") }
	inj := chaos.New(42,
		chaos.Rule{Point: chaos.FabricDispatch, Fault: chaos.Cancel, Rate: 0.2},
	)
	local := explore.New(explore.Options{Workers: 2})
	co := New(Config{
		Workers: []Worker{workers[0], workers[1], workers[2]},
		Chaos:   inj, Local: local.Sweep,
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
		t.Fatal("no dispatch failed though node-1 is dead")
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
	co := New(Config{Workers: []Worker{w0, w1}})
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
