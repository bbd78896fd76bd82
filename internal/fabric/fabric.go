// Package fabric scales the exploration engine horizontally: a
// coordinator shards a sweep's expanded specs across N worker nodes
// and makes the cluster behave like one fast engine.
//
// Sharding is by rendezvous (highest-random-weight) hashing of
// core.Spec.Fingerprint() — the same key the result cache and the
// durable store use — against each healthy worker's name, so every
// spec has exactly one owning worker: repeat sweeps land on warm
// caches, and no two workers ever solve the same point. Each owner
// gets its whole share as one batch over the worker's existing HTTP
// API (POST /v1/solve-batch?wire=fabric). A batch that fails in
// transport is sharded again by the same rule over the healthy
// workers that have not failed it, points a worker's context cut off
// are dispatched again the same way, and points that spend the
// sweep's attempt budget fall back to the coordinator's local engine.
// Results are collected in input order, so the output is
// byte-identical to a single-node explore.Engine.Sweep of the same
// specs — results depend only on the model, never on routing or
// failure history.
//
// The chaos point fabric.dispatch (internal/chaos) gates the dispatch
// RPC, so the reroute machinery is provable under deterministic fault
// schedules.
package fabric

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/explore"
)

const (
	// failAfter consecutive dispatch failures mark a worker unhealthy;
	// heartbeats can bring it back.
	failAfter = 2
	// heartbeatTimeout bounds one health probe or stats poll.
	heartbeatTimeout = 2 * time.Second
)

// Config assembles a Coordinator. Zero values take the defaults
// documented per field.
type Config struct {
	// Workers is the initial worker set; more can join later via
	// Register.
	Workers []Worker
	// Heartbeat is the background probe period; 0 disables the loop
	// (workers then change health only on dispatch failures and
	// Register).
	Heartbeat time.Duration
	// Local is the coordinator's own solve path (typically the local
	// engine's Sweep), the fallback of last resort when points exhaust
	// their attempt budget or no worker is left to take them. Nil
	// means such points surface dispatch errors instead.
	Local func(context.Context, []core.Spec) []explore.Result
	// Chaos arms fabric.dispatch; nil disables injection.
	Chaos *chaos.Injector
}

// workerState pairs a Worker with its health and per-worker counters.
type workerState struct {
	w           Worker
	nameHash    uint64 // splitmix64(fnv64a(Name())), the worker's rendezvous key
	healthy     atomic.Bool
	consecFails atomic.Int64

	points   atomic.Int64 // points this worker delivered
	chunks   atomic.Int64 // batches this worker completed
	failures atomic.Int64 // dispatch attempts that failed on this worker
}

// Coordinator shards sweeps across its workers. All methods are safe
// for concurrent use; concurrent Sweeps share the worker set and the
// workers' own admission control.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers []*workerState // guarded by mu (the slice; states use atomics)

	sweeps           atomic.Int64
	chunksDispatched atomic.Int64 // dispatch RPC attempts, one per batch
	chunksRerouted   atomic.Int64 // batches sharded again after a failure or cutoff
	dispatchFailures atomic.Int64
	localPoints      atomic.Int64 // points solved by the local fallback
	duplicateResults atomic.Int64 // results delivered for an already-filled point (invariant: 0)
	heartbeatFails   atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	hbWG     sync.WaitGroup
}

// New builds a Coordinator and, when cfg.Heartbeat is set, starts its
// background heartbeat loop (stop it with Close).
func New(cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg, stopCh: make(chan struct{})}
	for _, w := range cfg.Workers {
		c.Register(w)
	}
	if cfg.Heartbeat > 0 {
		c.hbWG.Add(1)
		go c.heartbeatLoop()
	}
	return c
}

// Register adds a worker (deduplicated by name) and marks it healthy.
// Reports whether the worker was new.
func (c *Coordinator) Register(w Worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.workers {
		if ws.w.Name() == w.Name() {
			ws.healthy.Store(true)
			ws.consecFails.Store(0)
			return false
		}
	}
	ws := &workerState{w: w, nameHash: splitmix64(fnv64a(w.Name()))}
	ws.healthy.Store(true)
	c.workers = append(c.workers, ws)
	return true
}

// Close stops the heartbeat loop. In-flight Sweeps are unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.hbWG.Wait()
}

func (c *Coordinator) snapshot() []*workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*workerState, len(c.workers))
	copy(out, c.workers)
	return out
}

func (c *Coordinator) heartbeatLoop() {
	defer c.hbWG.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.HeartbeatNow()
		}
	}
}

// HeartbeatNow probes every worker once, updating health: a live
// probe heals a worker dispatch failures had marked down, a dead one
// takes it out of the next sweep's owners.
func (c *Coordinator) HeartbeatNow() {
	for _, ws := range c.snapshot() {
		ctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
		ok := ws.w.Healthy(ctx)
		cancel()
		if ok {
			ws.consecFails.Store(0)
		} else {
			c.heartbeatFails.Add(1)
		}
		ws.healthy.Store(ok)
	}
}

// --- rendezvous hashing -----------------------------------------------

// fnv64a and splitmix64 give rendezvous hashing a cheap, well-mixed,
// dependency-free hash; the same pair the chaos injector uses for its
// decision schedule.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// owner returns the index in ws of the worker owning fingerprint fp:
// the one whose rendezvous key weighs highest against fp. Losing a
// worker moves only the fingerprints it owned, each to its runner-up;
// every other spec keeps its owner, which is what keeps the surviving
// workers' caches warm across membership changes.
func owner(ws []*workerState, fp string) int {
	key := fnv64a(fp)
	best, bestWeight := 0, uint64(0)
	for i, w := range ws {
		if weight := splitmix64(key ^ w.nameHash); i == 0 || weight > bestWeight {
			best, bestWeight = i, weight
		}
	}
	return best
}

// --- sweep ------------------------------------------------------------

// sweep is one Sweep call's shared state.
type sweep struct {
	specs   []core.Spec
	fps     []string // fingerprints, by sweep index
	budget  int      // dispatch attempts a point may spend before the local fallback
	deliver func(explore.Result)
}

// specsAt returns the specs at the sweep indices idxs.
func (s *sweep) specsAt(idxs []int) []core.Spec {
	specs := make([]core.Spec, len(idxs))
	for k, i := range idxs {
		specs[k] = s.specs[i]
	}
	return specs
}

// Sweep shards the specs across the healthy workers and returns one
// Result per spec, in input order — the same contract as
// explore.Engine.Sweep, and byte-identical output for the same specs.
// onResult, when non-nil, observes every Result as it is delivered
// (completion order, serialized calls).
func (c *Coordinator) Sweep(ctx context.Context, specs []core.Spec, onResult func(explore.Result)) []explore.Result {
	c.sweeps.Add(1)
	results := make([]explore.Result, len(specs))
	filled := make([]bool, len(specs))
	var deliverMu sync.Mutex
	s := &sweep{specs: specs, fps: make([]string, len(specs)),
		budget: 2 + len(c.healthyWorkers())}
	s.deliver = func(r explore.Result) {
		deliverMu.Lock()
		defer deliverMu.Unlock()
		if r.Index < 0 || r.Index >= len(results) || filled[r.Index] {
			c.duplicateResults.Add(1)
			return
		}
		filled[r.Index] = true
		results[r.Index] = r
		if onResult != nil {
			onResult(r)
		}
	}

	// Specs that fail to fingerprint error out exactly like the
	// single-node sweep; the rest go to their owners.
	idxs := make([]int, 0, len(specs))
	for i, spec := range specs {
		fp, err := spec.Fingerprint()
		if err != nil {
			s.deliver(explore.Result{Index: i, Spec: spec, Err: err})
			continue
		}
		s.fps[i] = fp
		idxs = append(idxs, i)
	}
	if len(idxs) > 0 {
		c.dispatch(ctx, s, idxs, nil, 0, nil)
	}

	// Whatever the dispatch could not finish (cancellation) fails with
	// the context's error, like the single-node sweep's tail.
	for i := range specs {
		if !filled[i] {
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("fabric: point %d not delivered", i)
			}
			s.deliver(explore.Result{Index: i, Spec: specs[i], Err: err})
		}
	}
	return results
}

// Owner returns the healthy worker owning fingerprint fp, or nil when
// none is healthy. Routing single-point requests through it lands
// them on the same cache/store owner the sweep sharding uses, so
// interactive and sweep traffic stay warm together.
func (c *Coordinator) Owner(fp string) Worker {
	ws := c.healthyWorkers()
	if len(ws) == 0 {
		return nil
	}
	return ws[owner(ws, fp)].w
}

func (c *Coordinator) healthyWorkers() []*workerState {
	all := c.snapshot()
	out := make([]*workerState, 0, len(all))
	for _, ws := range all {
		if ws.healthy.Load() {
			out = append(out, ws)
		}
	}
	return out
}

// dispatch gives each of the points idxs to its owner among the
// healthy workers not in failed, sends every owner its share as one
// batch on its own goroutine, and waits for them. Points that have
// spent the sweep's attempt budget, or that no worker is left to
// take, go to the local fallback instead; cause is the transport
// error that sent them back here, if any.
func (c *Coordinator) dispatch(ctx context.Context, s *sweep, idxs []int, failed []*workerState, attempts int, cause error) {
	var ws []*workerState
	if attempts < s.budget {
		for _, w := range c.healthyWorkers() {
			if !slices.Contains(failed, w) {
				ws = append(ws, w)
			}
		}
	}
	if len(ws) == 0 {
		c.local(ctx, s, idxs, cause)
		return
	}
	shares := make([][]int, len(ws))
	for _, i := range idxs {
		o := owner(ws, s.fps[i])
		shares[o] = append(shares[o], i)
	}
	var wg sync.WaitGroup
	for o, share := range shares {
		if len(share) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.send(ctx, s, ws[o], share, failed, attempts)
			}()
		}
	}
	wg.Wait()
}

// send dispatches one batch to w and delivers its results. A
// transport failure counts against w (failAfter consecutive failures
// mark it unhealthy) and shards the whole batch again without w. The
// points w's context cut off are dispatched again the same way, w
// included: the worker engine forgets canceled entries, so the retry
// solves them cold and the output stays byte-identical. When the
// sweep's own context is done, both leave their points unfilled for
// the cancellation tail instead.
func (c *Coordinator) send(ctx context.Context, s *sweep, w *workerState, idxs []int, failed []*workerState, attempts int) {
	specs := s.specsAt(idxs)
	c.chunksDispatched.Add(1)
	// An injected fault is absorbed exactly like a failed RPC: the
	// worker never saw the batch, so sending it again cannot
	// double-solve.
	err := c.cfg.Chaos.Inject(ctx, chaos.FabricDispatch)
	var wres []WireResult
	if err == nil {
		wres, err = w.w.SolveBatch(ctx, specs)
	}
	if err == nil && len(wres) != len(specs) {
		err = fmt.Errorf("fabric: worker %s returned %d results for %d specs",
			w.w.Name(), len(wres), len(specs))
	}
	if err != nil {
		w.failures.Add(1)
		c.dispatchFailures.Add(1)
		if w.consecFails.Add(1) >= failAfter {
			w.healthy.Store(false)
		}
		if ctx.Err() == nil {
			c.chunksRerouted.Add(1)
			c.dispatch(ctx, s, idxs, append(slices.Clip(failed), w), attempts+1, err)
		}
		return
	}
	w.consecFails.Store(0)
	var cut []int
	for k, wr := range wres {
		if wr.canceled() {
			cut = append(cut, idxs[k])
			continue
		}
		r := FromWire(wr)
		r.Index = idxs[k]
		s.deliver(r)
	}
	w.points.Add(int64(len(idxs) - len(cut)))
	w.chunks.Add(1)
	if len(cut) > 0 && ctx.Err() == nil {
		c.chunksRerouted.Add(1)
		c.dispatch(ctx, s, cut, failed, attempts+1, nil)
	}
}

// local solves points on the coordinator itself, or fails them with
// cause when no local solver is configured.
func (c *Coordinator) local(ctx context.Context, s *sweep, idxs []int, cause error) {
	if c.cfg.Local == nil {
		if cause == nil {
			cause = fmt.Errorf("fabric: dispatch attempts exhausted")
		}
		for _, i := range idxs {
			s.deliver(explore.Result{Index: i, Spec: s.specs[i],
				Err: fmt.Errorf("fabric: no worker could solve point: %w", cause)})
		}
		return
	}
	c.localPoints.Add(int64(len(idxs)))
	for k, r := range c.cfg.Local(ctx, s.specsAt(idxs)) {
		r.Index = idxs[k]
		s.deliver(r)
	}
}

// --- observability ----------------------------------------------------

// WorkerStatus is one worker's view in Status.
type WorkerStatus struct {
	Name             string `json:"name"`
	Healthy          bool   `json:"healthy"`
	Points           int64  `json:"points"`
	Chunks           int64  `json:"chunks"`
	DispatchFailures int64  `json:"dispatch_failures"`
}

// Status is the coordinator's /v1/fabric snapshot. Its chunk
// counters count batches: a sweep dispatches one per owner, plus one
// per reroute.
type Status struct {
	Workers          []WorkerStatus `json:"workers"`
	HealthyWorkers   int            `json:"healthy_workers"`
	Sweeps           int64          `json:"sweeps"`
	ChunksDispatched int64          `json:"chunks_dispatched"`
	// ChunksStolen is always 0: the coordinator no longer steals work.
	// It stays for the benchmark harness, which still reads it.
	ChunksStolen     int64 `json:"chunks_stolen"`
	ChunksRerouted   int64 `json:"chunks_rerouted"`
	DispatchFailures int64 `json:"dispatch_failures"`
	HeartbeatFails   int64 `json:"heartbeat_failures"`
	LocalPoints      int64 `json:"local_fallback_points"`
	DuplicateResults int64 `json:"duplicate_results"`
}

// Status snapshots the coordinator counters and per-worker health.
func (c *Coordinator) Status() Status {
	all := c.snapshot()
	s := Status{
		Workers:          make([]WorkerStatus, 0, len(all)),
		Sweeps:           c.sweeps.Load(),
		ChunksDispatched: c.chunksDispatched.Load(),
		ChunksRerouted:   c.chunksRerouted.Load(),
		DispatchFailures: c.dispatchFailures.Load(),
		HeartbeatFails:   c.heartbeatFails.Load(),
		LocalPoints:      c.localPoints.Load(),
		DuplicateResults: c.duplicateResults.Load(),
	}
	for _, ws := range all {
		h := ws.healthy.Load()
		if h {
			s.HealthyWorkers++
		}
		s.Workers = append(s.Workers, WorkerStatus{
			Name:             ws.w.Name(),
			Healthy:          h,
			Points:           ws.points.Load(),
			Chunks:           ws.chunks.Load(),
			DispatchFailures: ws.failures.Load(),
		})
	}
	return s
}

// ClusterStats merges every reachable worker's engine counters into
// one cluster-wide explore.Stats (counter conservation per
// Stats.Merge). The coordinator's own engine is not included; callers
// merge it themselves if they want the full picture.
func (c *Coordinator) ClusterStats(ctx context.Context) explore.Stats {
	var agg explore.Stats
	for _, ws := range c.snapshot() {
		sctx, cancel := context.WithTimeout(ctx, heartbeatTimeout)
		st, err := ws.w.Stats(sctx)
		cancel()
		if err == nil {
			agg = agg.Merge(st)
		}
	}
	return agg
}
