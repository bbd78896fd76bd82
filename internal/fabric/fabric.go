// Package fabric scales the exploration engine horizontally: a
// coordinator shards a sweep's expanded specs across N worker nodes
// and makes the cluster behave like one fast engine.
//
// Sharding is by consistent hash of core.Spec.Fingerprint() — the
// same key the result cache and the durable store use — so every spec
// has exactly one owning worker: repeat sweeps land on warm caches,
// and no two workers ever solve the same point. Chunks dispatch over
// the worker's existing HTTP API (POST /v1/solve-batch?wire=fabric);
// idle workers steal queued chunks from stragglers' queues (queued
// work only — in-flight chunks are never duplicated); a failed or
// timed-out dispatch reroutes its chunk to another healthy worker
// with a bounded attempt budget, falling back to the coordinator's
// local engine when the budget is exhausted. Results are collected in
// input order, so the output is byte-identical to a single-node
// explore.Engine.Sweep of the same specs — results depend only on the
// model, never on routing, stealing, or failure history.
//
// The chaos points fabric.dispatch and fabric.steal (internal/chaos)
// gate the dispatch RPC and the steal decision, so the reroute and
// steal machinery is provable under deterministic fault schedules.
package fabric

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/explore"
)

const (
	// failAfter consecutive dispatch failures mark a worker unhealthy
	// mid-sweep; heartbeats can bring it back.
	failAfter = 2
	// heartbeatTimeout bounds one health probe or stats poll.
	heartbeatTimeout = 2 * time.Second
	// vnodes is the number of ring positions per worker: more spread
	// load more evenly at the cost of a larger ring.
	vnodes = 64
)

// Config assembles a Coordinator. Zero values take the defaults
// documented per field.
type Config struct {
	// Workers is the initial worker set; more can join later via
	// Register. Its size also sets each chunk's dispatch attempt
	// budget across reroutes: 2 + len(Workers), after which the local
	// fallback solves the chunk.
	Workers []Worker
	// ChunkSize is the number of specs per dispatch RPC (default 16).
	// Smaller chunks steal and reroute at finer grain; larger ones
	// amortize transport overhead.
	ChunkSize int
	// Heartbeat is the background probe period; 0 disables the loop
	// (workers then change health only on dispatch failures and
	// Register).
	Heartbeat time.Duration
	// Local is the coordinator's own solve path (typically the local
	// engine's Sweep), the fallback of last resort when a chunk
	// exhausts its attempt budget or no worker is healthy. Nil means
	// such points surface dispatch errors instead.
	Local func(context.Context, []core.Spec) []explore.Result
	// Chaos arms fabric.dispatch and fabric.steal; nil disables
	// injection.
	Chaos *chaos.Injector
}

// workerState pairs a Worker with its health and per-worker counters.
type workerState struct {
	w           Worker
	healthy     atomic.Bool
	consecFails atomic.Int64

	points   atomic.Int64 // points this worker delivered
	chunks   atomic.Int64 // chunks this worker completed
	steals   atomic.Int64 // chunks this worker stole from another queue
	failures atomic.Int64 // dispatch attempts that failed on this worker
}

// Coordinator shards sweeps across its workers. All methods are safe
// for concurrent use; concurrent Sweeps share the worker set and the
// workers' own admission control.
type Coordinator struct {
	cfg         Config
	maxAttempts int // dispatch attempts per chunk before the local fallback

	mu      sync.Mutex
	workers []*workerState // guarded by mu (the slice; states use atomics)

	sweeps           atomic.Int64
	chunksDispatched atomic.Int64 // dispatch RPC attempts
	chunksRerouted   atomic.Int64 // chunks requeued after a failed dispatch
	chunksStolen     atomic.Int64
	stealsAborted    atomic.Int64 // steal attempts a chaos fault abandoned
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
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 16
	}
	c := &Coordinator{cfg: cfg, maxAttempts: 2 + len(cfg.Workers), stopCh: make(chan struct{})}
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
	ws := &workerState{w: w}
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
// takes it out of the next sweep's ring.
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

// --- consistent-hash ring ---------------------------------------------

// fnv64a and splitmix64 give the ring a cheap, well-mixed, dependency-
// free hash; the same pair the chaos injector uses for its decision
// schedule.
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

// ring maps fingerprint hashes to worker slots: vnodes points per
// worker on a uint64 circle, each fingerprint owned by the first
// point at or clockwise of its hash. Losing a worker reassigns only
// that worker's arcs (to their clockwise successors); every other
// spec keeps its owner — which is what keeps the surviving workers'
// caches warm across membership changes.
type ring struct {
	hashes []uint64
	slots  []int
}

// buildRing places vnodes points per worker name. Names must be
// distinct; order does not matter (the ring is a pure function of the
// name set).
func buildRing(names []string) ring {
	type pt struct {
		h    uint64
		slot int
	}
	pts := make([]pt, 0, len(names)*vnodes)
	for slot, name := range names {
		base := fnv64a(name)
		for v := 0; v < vnodes; v++ {
			pts = append(pts, pt{splitmix64(base ^ uint64(v)<<17), slot})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].slot < pts[j].slot // deterministic on (vanishingly rare) hash ties
	})
	r := ring{hashes: make([]uint64, len(pts)), slots: make([]int, len(pts))}
	for i, p := range pts {
		r.hashes[i], r.slots[i] = p.h, p.slot
	}
	return r
}

// owner returns the slot owning fingerprint fp.
func (r ring) owner(fp string) int {
	h := splitmix64(fnv64a(fp))
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.slots[i]
}

// --- sweep run --------------------------------------------------------

// chunk is one dispatchable unit: a subset of the sweep's points.
// idxs are sweep-global indices, specs the matching subset, attempts
// the dispatch budget consumed so far.
type chunk struct {
	idxs     []int
	specs    []core.Spec
	attempts int
}

// sweepRun is the shared state of one Sweep call's dispatch loop.
type sweepRun struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queues   [][]*chunk // per-runner pending chunks; in-flight chunks live nowhere
	pending  int        // points not yet delivered
	canceled bool
}

func (run *sweepRun) broadcastLocked() { run.cond.Broadcast() }

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
	deliver := func(r explore.Result) {
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

	ws := c.healthyWorkers()
	if len(ws) == 0 {
		c.localSweep(ctx, specs, nil, deliver)
		return results
	}

	// Shard: fingerprint every point, chunk each owner's points in
	// index order. Specs that fail to fingerprint error out exactly
	// like the single-node sweep.
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.w.Name()
	}
	rg := buildRing(names)
	perOwner := make([][]int, len(ws))
	pending := 0
	for i, spec := range specs {
		fp, err := spec.Fingerprint()
		if err != nil {
			deliver(explore.Result{Index: i, Spec: spec, Err: err})
			continue
		}
		o := rg.owner(fp)
		perOwner[o] = append(perOwner[o], i)
		pending++
	}
	if pending == 0 {
		return results
	}

	run := &sweepRun{queues: make([][]*chunk, len(ws)), pending: pending}
	run.cond = sync.NewCond(&run.mu)
	for o, idxs := range perOwner {
		for len(idxs) > 0 {
			n := min(c.cfg.ChunkSize, len(idxs))
			ch := &chunk{idxs: idxs[:n:n]}
			ch.specs = make([]core.Spec, n)
			for k, idx := range ch.idxs {
				ch.specs[k] = specs[idx]
			}
			run.queues[o] = append(run.queues[o], ch)
			idxs = idxs[n:]
		}
	}

	// Wake every parked runner when the context dies so they can exit.
	stopWatch := context.AfterFunc(ctx, func() {
		run.mu.Lock()
		run.canceled = true
		run.broadcastLocked()
		run.mu.Unlock()
	})
	defer stopWatch()

	var wg sync.WaitGroup
	for wi := range ws {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c.runner(ctx, run, ws, wi, deliver)
		}(wi)
	}
	wg.Wait()

	// Whatever the runners could not finish (cancellation) fails with
	// the context's error, like the single-node sweep's tail.
	for i := range specs {
		if !filled[i] {
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("fabric: point %d not delivered", i)
			}
			deliver(explore.Result{Index: i, Spec: specs[i], Err: err})
		}
	}
	return results
}

// Owner returns the healthy worker owning fingerprint fp on the
// current ring, or nil when none is healthy. Routing single-point
// requests through it lands them on the same cache/store owner the
// sweep sharding uses, so interactive and sweep traffic stay warm
// together.
func (c *Coordinator) Owner(fp string) Worker {
	ws := c.healthyWorkers()
	if len(ws) == 0 {
		return nil
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.w.Name()
	}
	return ws[buildRing(names).owner(fp)].w
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

// runner is one worker's dispatch loop: drain the own queue, then
// steal from stragglers, until every point of the run is delivered.
func (c *Coordinator) runner(ctx context.Context, run *sweepRun, ws []*workerState, wi int, deliver func(explore.Result)) {
	st := ws[wi]
	for {
		ch, last := c.nextChunk(ctx, run, ws, wi)
		if ch == nil {
			if last != nil {
				// This runner is the last one standing and chunks are
				// still queued: no worker can take them, so the local
				// fallback finishes the sweep.
				for _, lc := range last {
					c.fallbackChunk(ctx, run, lc, nil, deliver)
				}
			}
			return
		}
		c.chunksDispatched.Add(1)
		if err := c.cfg.Chaos.Inject(ctx, chaos.FabricDispatch); err != nil {
			// Injected transport fault: reroute exactly as if the RPC
			// had failed on the wire. The worker never saw the chunk,
			// so rerouting cannot double-solve.
			c.failChunk(ctx, run, ws, wi, ch, err, deliver)
			continue
		}
		wres, err := st.w.SolveBatch(ctx, ch.specs)
		if err == nil && len(wres) != len(ch.specs) {
			err = fmt.Errorf("fabric: worker %s returned %d results for %d specs",
				st.w.Name(), len(wres), len(ch.specs))
		}
		if err != nil {
			c.failChunk(ctx, run, ws, wi, ch, err, deliver)
			continue
		}
		st.consecFails.Store(0)
		c.deliverChunk(ctx, run, ws, wi, ch, wres, deliver)
	}
}

// nextChunk blocks until the runner has work: its own queue first,
// then a steal from the longest other queue. Returns (nil, nil) when
// the run is complete or canceled; returns (nil, leftovers) when this
// runner went unhealthy or is the last to exit with queued chunks
// nobody can serve — the caller must fall back locally on leftovers.
func (c *Coordinator) nextChunk(ctx context.Context, run *sweepRun, ws []*workerState, wi int) (*chunk, []*chunk) {
	st := ws[wi]
	run.mu.Lock()
	defer run.mu.Unlock()
	for {
		if run.canceled || run.pending == 0 {
			return nil, nil
		}
		if !st.healthy.Load() {
			// Hand the own queue to the healthy runners (or to the
			// local fallback when none remain) and bow out.
			return nil, c.abandonQueueLocked(run, ws, wi)
		}
		if q := run.queues[wi]; len(q) > 0 {
			ch := q[0]
			run.queues[wi] = q[1:]
			return ch, nil
		}
		victim := c.longestOtherQueue(run, ws, wi)
		if victim < 0 {
			// Nothing to steal; wait for a delivery, a requeue, or
			// cancellation to change the world.
			run.cond.Wait()
			continue
		}
		// Steal from the victim's tail: the owner drains its queue
		// from the front, so contention is minimal. The chaos gate
		// (and any injected latency) runs unlocked.
		run.mu.Unlock()
		err := c.cfg.Chaos.Inject(ctx, chaos.FabricSteal)
		run.mu.Lock()
		if err != nil {
			c.stealsAborted.Add(1)
			if run.canceled || run.pending == 0 {
				return nil, nil
			}
			run.cond.Wait() // try again after the next state change
			continue
		}
		victim = c.longestOtherQueue(run, ws, wi) // world may have changed while unlocked
		if victim < 0 {
			continue
		}
		q := run.queues[victim]
		ch := q[len(q)-1]
		run.queues[victim] = q[:len(q)-1]
		st.steals.Add(1)
		c.chunksStolen.Add(1)
		return ch, nil
	}
}

// longestOtherQueue picks the steal victim: the healthy-or-not runner
// with the most queued chunks. (Unhealthy runners' queues are prime
// steal targets — their owner is not draining them.)
func (c *Coordinator) longestOtherQueue(run *sweepRun, ws []*workerState, wi int) int {
	best, bestLen := -1, 0
	for j := range run.queues {
		if j != wi && len(run.queues[j]) > bestLen {
			best, bestLen = j, len(run.queues[j])
		}
	}
	return best
}

// abandonQueueLocked moves an unhealthy runner's queued chunks to the
// healthy runner with the shortest queue. When no healthy runner
// remains this runner is the last line of defense: it takes the
// leftovers (its own queue plus every other abandoned queue) for the
// local fallback. Caller holds run.mu.
func (c *Coordinator) abandonQueueLocked(run *sweepRun, ws []*workerState, wi int) []*chunk {
	target := -1
	for j := range ws {
		if j != wi && ws[j].healthy.Load() {
			if target < 0 || len(run.queues[j]) < len(run.queues[target]) {
				target = j
			}
		}
	}
	if target >= 0 {
		run.queues[target] = append(run.queues[target], run.queues[wi]...)
		run.queues[wi] = nil
		run.broadcastLocked()
		return nil
	}
	var leftovers []*chunk
	for j := range run.queues {
		leftovers = append(leftovers, run.queues[j]...)
		run.queues[j] = nil
	}
	return leftovers
}

// failChunk handles a failed dispatch: bump the worker's failure
// accounting (failAfter consecutive failures mark it unhealthy), then
// either reroute the chunk to another worker's queue or — once its
// attempt budget is spent — solve it through the local fallback.
func (c *Coordinator) failChunk(ctx context.Context, run *sweepRun, ws []*workerState, wi int, ch *chunk, err error, deliver func(explore.Result)) {
	st := ws[wi]
	st.failures.Add(1)
	c.dispatchFailures.Add(1)
	if st.consecFails.Add(1) >= failAfter {
		st.healthy.Store(false)
	}
	if ctx.Err() != nil {
		// The run itself is dying; leave the points unfilled for the
		// cancellation tail.
		run.mu.Lock()
		run.canceled = true
		run.broadcastLocked()
		run.mu.Unlock()
		return
	}
	ch.attempts++
	if ch.attempts >= c.maxAttempts {
		c.fallbackChunk(ctx, run, ch, err, deliver)
		return
	}
	c.chunksRerouted.Add(1)
	run.mu.Lock()
	target := wi
	bestLen := -1
	for j := range ws {
		if j != wi && ws[j].healthy.Load() && (bestLen < 0 || len(run.queues[j]) < bestLen) {
			target, bestLen = j, len(run.queues[j])
		}
	}
	// No healthy peer: requeue on self; the attempt budget converts a
	// persistent failure into the local fallback after maxAttempts.
	run.queues[target] = append(run.queues[target], ch)
	run.broadcastLocked()
	run.mu.Unlock()
}

// deliverChunk records a completed chunk: good results deliver (and
// shrink pending); results the worker's context cut off are requeued
// as a fresh chunk — the worker engine forgets canceled entries, so
// the retry re-solves them cold and the output stays byte-identical —
// unless the run's own context is done, which leaves them to the
// cancellation tail.
func (c *Coordinator) deliverChunk(ctx context.Context, run *sweepRun, ws []*workerState, wi int, ch *chunk, wres []WireResult, deliver func(explore.Result)) {
	st := ws[wi]
	var retry *chunk
	delivered := 0
	for k, wr := range wres {
		if wr.canceled() {
			if retry == nil {
				retry = &chunk{attempts: ch.attempts}
			}
			retry.idxs = append(retry.idxs, ch.idxs[k])
			retry.specs = append(retry.specs, ch.specs[k])
			continue
		}
		r := FromWire(wr)
		r.Index = ch.idxs[k]
		deliver(r)
		delivered++
	}
	st.points.Add(int64(delivered))
	st.chunks.Add(1)
	run.mu.Lock()
	run.pending -= delivered
	if retry != nil && ctx.Err() != nil {
		// The run itself is dying, and its context cut the worker's
		// points off: leave them unfilled for the cancellation tail,
		// as failChunk does, instead of spending their attempts before
		// the context's watcher marks the run.
		run.canceled = true
	} else if retry != nil {
		retry.attempts++
		if retry.attempts >= c.maxAttempts {
			run.mu.Unlock()
			c.fallbackChunk(ctx, run, retry, nil, deliver)
			run.mu.Lock()
		} else {
			c.chunksRerouted.Add(1)
			run.queues[wi] = append(run.queues[wi], retry)
		}
	}
	run.broadcastLocked()
	run.mu.Unlock()
}

// fallbackChunk solves a chunk on the coordinator itself (or fails
// its points when no local solver is configured) and delivers.
func (c *Coordinator) fallbackChunk(ctx context.Context, run *sweepRun, ch *chunk, cause error, deliver func(explore.Result)) {
	c.localChunk(ctx, ch, cause, deliver)
	run.mu.Lock()
	run.pending -= len(ch.idxs)
	run.broadcastLocked()
	run.mu.Unlock()
}

func (c *Coordinator) localChunk(ctx context.Context, ch *chunk, cause error, deliver func(explore.Result)) {
	if c.cfg.Local == nil {
		if cause == nil {
			cause = fmt.Errorf("fabric: dispatch attempts exhausted")
		}
		for k, idx := range ch.idxs {
			deliver(explore.Result{Index: idx, Spec: ch.specs[k],
				Err: fmt.Errorf("fabric: no worker could solve point: %w", cause)})
		}
		return
	}
	c.localPoints.Add(int64(len(ch.idxs)))
	for k, r := range c.cfg.Local(ctx, ch.specs) {
		r.Index = ch.idxs[k]
		deliver(r)
	}
}

// localSweep serves a whole sweep through the fallback (the
// no-healthy-workers path), preserving the Sweep result contract.
func (c *Coordinator) localSweep(ctx context.Context, specs []core.Spec, cause error, deliver func(explore.Result)) {
	idxs := make([]int, len(specs))
	for i := range idxs {
		idxs[i] = i
	}
	c.localChunk(ctx, &chunk{idxs: idxs, specs: specs}, cause, deliver)
}

// --- observability ----------------------------------------------------

// WorkerStatus is one worker's view in Status.
type WorkerStatus struct {
	Name             string `json:"name"`
	Healthy          bool   `json:"healthy"`
	Points           int64  `json:"points"`
	Chunks           int64  `json:"chunks"`
	ChunksStolen     int64  `json:"chunks_stolen"`
	DispatchFailures int64  `json:"dispatch_failures"`
}

// Status is the coordinator's /v1/fabric snapshot.
type Status struct {
	Workers          []WorkerStatus `json:"workers"`
	HealthyWorkers   int            `json:"healthy_workers"`
	Sweeps           int64          `json:"sweeps"`
	ChunksDispatched int64          `json:"chunks_dispatched"`
	ChunksStolen     int64          `json:"chunks_stolen"`
	ChunksRerouted   int64          `json:"chunks_rerouted"`
	StealsAborted    int64          `json:"steals_aborted"`
	DispatchFailures int64          `json:"dispatch_failures"`
	HeartbeatFails   int64          `json:"heartbeat_failures"`
	LocalPoints      int64          `json:"local_fallback_points"`
	DuplicateResults int64          `json:"duplicate_results"`
}

// Status snapshots the coordinator counters and per-worker health.
func (c *Coordinator) Status() Status {
	all := c.snapshot()
	s := Status{
		Workers:          make([]WorkerStatus, 0, len(all)),
		Sweeps:           c.sweeps.Load(),
		ChunksDispatched: c.chunksDispatched.Load(),
		ChunksStolen:     c.chunksStolen.Load(),
		ChunksRerouted:   c.chunksRerouted.Load(),
		StealsAborted:    c.stealsAborted.Load(),
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
			ChunksStolen:     ws.steals.Load(),
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
