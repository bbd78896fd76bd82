package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/store"
)

// ErrSolverPanic marks a panic recovered from a solver invocation or
// a sweep worker: the fault is confined to the offending point
// instead of killing the process, and the panic value is carried in
// the wrapped error text.
var ErrSolverPanic = errors.New("solver panicked")

// Options configures an Engine. The zero value is usable: GOMAXPROCS
// workers, a fresh cache, core.OptimizeContext as the solver.
type Options struct {
	// Workers bounds sweep concurrency; 0 means GOMAXPROCS.
	Workers int
	// CacheEntries bounds the result cache: past it, the least
	// recently used completed results are evicted. 0 means unbounded.
	CacheEntries int
	// Solver replaces the default core.OptimizeContext solver (tests
	// inject counting or slow solvers). The context is the
	// requester's: solvers should abandon work when it is cancelled.
	Solver func(context.Context, core.Spec) (*core.Solution, error)
	// Tier1 plugs a durable result store under the in-memory cache:
	// the LRU is tier 0, Tier1 is consulted on a tier-0 miss
	// before the solver runs, and pure outcomes are written back. A
	// tier-1 read fault is absorbed as a miss; nil disables the tier.
	// Singleflight still applies: concurrent fingerprint-equal
	// requests perform one tier-1 lookup, not one each.
	Tier1 store.Tiered
	// Chaos arms the engine's fault-injection points
	// (explore.worker, explore.solve and explore.cache.lookup). Nil
	// disables injection entirely.
	Chaos *chaos.Injector
}

// Engine runs solver jobs through a bounded worker pool with a
// fingerprint-keyed result cache and in-flight deduplication. All
// methods are safe for concurrent use.
type Engine struct {
	cache   *cache
	workers int
	// solver is Options.Solver; nil runs the default solver
	// (optimize), and sweeps then share array sub-solves.
	solver func(context.Context, core.Spec) (*core.Solution, error)
	chaos  *chaos.Injector // nil = fault injection disabled
	tier1  store.Tiered    // nil = durable tier disabled

	solves atomic.Int64 // solver invocations (misses in every tier)
	hits   atomic.Int64 // results served from tier 0 or an in-flight solve

	tier1Hits   atomic.Int64 // results served from the durable tier
	tier1Misses atomic.Int64 // tier-1 lookups that fell through to the solver

	panics atomic.Int64 // panics recovered from solver calls and sweep workers

	// Enumeration coverage, accumulated from core.SolveStats by the
	// default solver (zero when a custom Solver is injected).
	orgsConsidered  atomic.Int64
	orgsPruned      atomic.Int64
	orgsBuilt       atomic.Int64
	orgsPrunedBound atomic.Int64 // subset of orgsPruned cut by bound pruning
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	e := &Engine{workers: opts.Workers, solver: opts.Solver, chaos: opts.Chaos, tier1: opts.Tier1,
		cache: newCache(opts.CacheEntries, opts.Chaos)}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	return e
}

// optimize is the default solver: core.OptimizeContext, or, when sub
// is set, point i of the sweep that sub-solve table serves. It adds
// the solve's enumeration counters to the engine's.
func (e *Engine) optimize(ctx context.Context, spec core.Spec, sub *core.SubSolves, i int) (*core.Solution, error) {
	var st core.SolveStats
	opts := &core.Options{Stats: &st}
	var sol *core.Solution
	var err error
	if sub != nil {
		sol, err = sub.Optimize(ctx, i, opts)
	} else {
		sol, err = core.OptimizeContext(ctx, spec, opts)
	}
	total := st.Total()
	e.orgsConsidered.Add(total.Considered)
	e.orgsPruned.Add(total.PrunedTotal())
	e.orgsBuilt.Add(total.Built)
	e.orgsPrunedBound.Add(total.PrunedBoundShard + total.PrunedBoundPoint)
	return sol, err
}

// Result is one evaluated sweep point. Err is non-nil when the spec
// was invalid, admitted no solution, or the sweep was cancelled
// before reaching it.
type Result struct {
	Index       int
	Spec        core.Spec
	Fingerprint string
	// Solution is the solved design's core.Project form (see
	// Engine.Solve).
	Solution *core.Solution
	Cached   bool
	Err      error

	// hit is the tier-0 entry that answered the point as a hit; the
	// renderer reads its value table while Solution is the entry's.
	hit *entry
}

// Solve optimizes one spec through the cache: repeated and concurrent
// calls for fingerprint-equal specs run the solver once. cached
// reports whether the result existed (or was already being computed)
// before this call.
//
// The solution is core.Project of the solver's answer, shared with
// tier 0 and every other caller of the same fingerprint: the spec, the
// scalar metrics and banks that keep only their organizations and the
// data array's pipeline stages — all that the renderers and Frontier
// read, and the same value a tier-1 hit or a fabric reply rebuilds.
// core.Optimize returns the full design for callers that need it,
// such as core.Report.
func (e *Engine) Solve(ctx context.Context, spec core.Spec) (sol *core.Solution, cached bool, err error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, false, err
	}
	var hit *entry
	return e.solve(ctx, spec, fp, nil, -1, &hit)
}

// solve is Solve for a fingerprinted spec; a sweep with the default
// solver passes its sub-solve table and the spec's index in it, nil and
// -1 otherwise. A tier-0 hit sets *hit to the entry that answered it.
func (e *Engine) solve(ctx context.Context, spec core.Spec, fp string, sub *core.SubSolves, i int, hit **entry) (*core.Solution, bool, error) {
	ent, created := e.cache.lookup(fp)
	for !created {
		select {
		case <-ent.ready:
			if !Canceled(ent.err) {
				e.hits.Add(1)
				*hit = ent
				return ent.sol, true, ent.err
			}
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// The owner's context ended, not this caller's, and the owner
		// forgot the key before closing ready: solve it here or park
		// on the new owner.
		ent, created = e.cache.lookup(fp)
	}
	if err := ctx.Err(); err != nil {
		// Cancelled before solving: drop the entry so later callers
		// recompute, and release any waiter already parked on it.
		e.cache.forget(fp)
		ent.err = err
		close(ent.ready)
		return nil, false, err
	}
	if e.tier1 != nil {
		// This is the singleflight owner path, so concurrent
		// fingerprint-equal requests cost one durable lookup total. A
		// hit fills tier 0 (the entry is already installed) and
		// reports cached=true, same as a tier-0 hit.
		if hit, ok := e.tier1.Lookup(ctx, fp); ok {
			e.tier1Hits.Add(1)
			ent.sol, ent.err = hit.Solution, hit.Err
			close(ent.ready)
			return ent.sol, true, ent.err
		}
		e.tier1Misses.Add(1)
	}
	e.solves.Add(1)
	sol, err := e.runSolver(ctx, spec, sub, i)
	ent.sol, ent.err = core.Project(sol), err
	if Canceled(ent.err) {
		// The solver was cut short by this requester's context: the
		// failure says nothing about the spec, so don't poison the
		// cache with it.
		e.cache.forget(fp)
	} else if e.tier1 != nil {
		// Persist the pure outcome (Save drops impure ones itself);
		// a write fault costs durability, never correctness.
		e.tier1.Save(ctx, fp, ent.sol, ent.err)
	}
	close(ent.ready)
	return ent.sol, false, ent.err
}

// Canceled reports whether err is the end of a context rather than an
// answer about the spec: such a result is never cached, a waiter whose
// own context is live does not take it from the owner, and a sweep job
// does not record it.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runSolver invokes the solver with the explore.solve injection point
// armed and with panic confinement: a panicking solver (a model bug,
// or an injected fault) is converted into an ErrSolverPanic error for
// this one solve instead of unwinding the worker goroutine — which
// would strand every caller parked on the cache entry.
func (e *Engine) runSolver(ctx context.Context, spec core.Spec, sub *core.SubSolves, i int) (sol *core.Solution, err error) {
	defer func() {
		if v := recover(); v != nil {
			e.panics.Add(1)
			sol, err = nil, fmt.Errorf("%w: %v", ErrSolverPanic, v)
		}
	}()
	if err := e.chaos.Inject(ctx, chaos.ExploreSolve); err != nil {
		return nil, err
	}
	if e.solver == nil {
		return e.optimize(ctx, spec, sub, i)
	}
	return e.solver(ctx, spec)
}

// sweepOne evaluates one sweep point, confining panics that escape
// the per-solve recovery (the explore.worker injection point, or
// fingerprinting) to this point's Result.
func (e *Engine) sweepOne(ctx context.Context, spec core.Spec, i int, sub *core.SubSolves) (r Result) {
	r = Result{Index: i, Spec: spec}
	defer func() {
		if v := recover(); v != nil {
			e.panics.Add(1)
			r.Solution, r.Cached, r.hit = nil, false, nil
			r.Err = fmt.Errorf("%w: %v", ErrSolverPanic, v)
		}
	}()
	if err := e.chaos.Inject(ctx, chaos.ExploreWorker); err != nil {
		r.Err = err
		return r
	}
	if fp, err := spec.Fingerprint(); err != nil {
		r.Err = err
	} else {
		r.Fingerprint = fp
		r.Solution, r.Cached, r.Err = e.solve(ctx, spec, fp, sub, i, &r.hit)
	}
	return r
}

// sweepRun is how many consecutive points a sweep worker takes at a
// time. Points that share array sub-solves sit next to each other in
// Grid.Expand order (modes innermost, then banks, then
// associativities), so a run solves them back to back on one worker,
// where the later ones find the earlier one's entries ready.
const sweepRun = 4

// Sweep evaluates every spec on the worker pool and returns one
// Result per input, in input order — so the output is a deterministic
// function of the job list regardless of worker count or completion
// order. Specs the grid planner produced in error (or that admit no
// solution) surface as per-point Errs; a cancelled context marks the
// unfinished tail with ctx.Err().
//
// Workers take the points in runs of sweepRun consecutive indices.
// With the default solver, the sweep's points share their array
// sub-solves through one core.SubSolves table, released when Sweep
// returns; the answers are those of per-point solves, bit for bit.
func (e *Engine) Sweep(ctx context.Context, specs []core.Spec) []Result {
	results := make([]Result, len(specs))
	runs := (len(specs) + sweepRun - 1) / sweepRun
	workers := max(1, min(e.workers, runs))
	var sub *core.SubSolves
	if e.solver == nil {
		sub = core.NewSubSolves(specs)
		defer sub.Close()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(sweepRun)) - sweepRun
				if start >= len(specs) {
					return
				}
				for i := start; i < min(start+sweepRun, len(specs)); i++ {
					if err := ctx.Err(); err != nil {
						results[i] = Result{Index: i, Spec: specs[i], Err: err}
					} else {
						results[i] = e.sweepOne(ctx, specs[i], i, sub)
					}
					sub.Done(i)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// Stats is a snapshot of the engine's cache and enumeration counters.
// A fabric coordinator decodes it from every worker's /v1/stats, so a
// renamed key reads as zero from an older worker; cactid-serve's
// TestStatsEndpoint pins the keys.
type Stats struct {
	Solves       int64 `json:"solves"`
	CacheHits    int64 `json:"cache_hits"` // tier-0 (in-memory) hits
	CacheEntries int   `json:"cache_entries"`

	// Durable-tier counters, zero when no Tier1 store is plugged in.
	Tier1Hits   int64 `json:"tier1_hits"`
	Tier1Misses int64 `json:"tier1_misses"`

	// Robustness counters: the cache's entry bound and churn, and
	// panics recovered from solver calls or sweep workers.
	CacheMaxEntries   int   `json:"cache_max_entries"` // 0 = unbounded
	CacheEvictions    int64 `json:"cache_evictions"`
	CacheForcedMisses int64 `json:"cache_forced_misses"`
	Panics            int64 `json:"panics"`

	// Organization-enumeration coverage across all solves (data +
	// tag arrays): triples considered, rejected by the cheap
	// feasibility precheck, and fully circuit-modeled.
	OrgsConsidered int64 `json:"orgs_considered"`
	OrgsPruned     int64 `json:"orgs_pruned"`
	OrgsBuilt      int64 `json:"orgs_built"`
	// OrgsPrunedBound is the subset of OrgsPruned discarded by the
	// branch-and-bound tiers (zero when the bounded path never
	// applied).
	OrgsPrunedBound int64 `json:"orgs_pruned_bound"`
}

// Merge returns the field-wise sum of s and other: the cluster view
// of several engines' counters (a sweep-fabric coordinator aggregates
// its workers' stats this way). Every counter adds, so merging
// conserves them: merged.Solves is exactly the number of solver
// invocations anywhere in the cluster. The entry gauges add too —
// CacheEntries is the cluster-wide resident result count and
// CacheMaxEntries the cluster-wide capacity (0 stays "unbounded" only
// when every engine is unbounded).
func (s Stats) Merge(other Stats) Stats {
	return Stats{
		Solves:            s.Solves + other.Solves,
		CacheHits:         s.CacheHits + other.CacheHits,
		CacheEntries:      s.CacheEntries + other.CacheEntries,
		Tier1Hits:         s.Tier1Hits + other.Tier1Hits,
		Tier1Misses:       s.Tier1Misses + other.Tier1Misses,
		CacheMaxEntries:   s.CacheMaxEntries + other.CacheMaxEntries,
		CacheEvictions:    s.CacheEvictions + other.CacheEvictions,
		CacheForcedMisses: s.CacheForcedMisses + other.CacheForcedMisses,
		Panics:            s.Panics + other.Panics,
		OrgsConsidered:    s.OrgsConsidered + other.OrgsConsidered,
		OrgsPruned:        s.OrgsPruned + other.OrgsPruned,
		OrgsBuilt:         s.OrgsBuilt + other.OrgsBuilt,
		OrgsPrunedBound:   s.OrgsPrunedBound + other.OrgsPrunedBound,
	}
}

// HitRatio returns the fraction of requests served without running
// the solver (tier-0 and tier-1 hits combined), 0 when idle.
func (s Stats) HitRatio() float64 {
	hits := s.CacheHits + s.Tier1Hits
	total := hits + s.Solves
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// PruneRatio returns the fraction of considered organizations
// rejected before circuit modeling, 0 when idle.
func (s Stats) PruneRatio() float64 {
	if s.OrgsConsidered == 0 {
		return 0
	}
	return float64(s.OrgsPruned) / float64(s.OrgsConsidered)
}

// Stats returns the current counters.
func (e *Engine) Stats() Stats {
	entries, evictions, forcedMisses := e.cache.stats()
	return Stats{
		Solves:            e.solves.Load(),
		CacheHits:         e.hits.Load(),
		CacheEntries:      entries,
		Tier1Hits:         e.tier1Hits.Load(),
		Tier1Misses:       e.tier1Misses.Load(),
		CacheMaxEntries:   e.cache.maxEntries,
		CacheEvictions:    evictions,
		CacheForcedMisses: forcedMisses,
		Panics:            e.panics.Load(),
		OrgsConsidered:    e.orgsConsidered.Load(),
		OrgsPruned:        e.orgsPruned.Load(),
		OrgsBuilt:         e.orgsBuilt.Load(),
		OrgsPrunedBound:   e.orgsPrunedBound.Load(),
	}
}
