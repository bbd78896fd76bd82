// Package chaos provides deterministic, seed-driven fault injection
// for the exploration engine and its HTTP server. Production code is
// instrumented with named injection points; a test (or a soak rig)
// arms an Injector with per-point fault rules and a seed, and the
// instrumented paths then observe forced cancellations, added
// latency, panics, and cache-miss storms on a reproducible schedule.
//
// When no Injector is armed the hooks are nil-receiver no-ops: a
// single nil check and an immediate return, so the instrumented hot
// paths pay nothing in production builds.
//
// Determinism: each point keeps an arm counter; the decision for arm
// n of point p under rule lane l is a pure function of
// (seed, p, l, n) via a splitmix64 hash. Two runs that arm a point
// the same number of times therefore observe the same multiset of
// injected faults, regardless of goroutine interleaving.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Point names one instrumented site. The catalog below is the
// complete set of named injection points; DESIGN.md §1.4 documents
// what each one can force.
type Point string

const (
	// ExploreWorker arms in the sweep worker pool, once per job
	// before the job is solved (internal/explore.Engine.Sweep).
	ExploreWorker Point = "explore.worker"
	// ExploreSolve arms on the solver call path, after the cache
	// admitted a miss and before the solver runs
	// (internal/explore.Engine.solve).
	ExploreSolve Point = "explore.solve"
	// CacheLookup arms on result-cache hits; a Miss fault drops the
	// completed entry and forces a recompute (a cache-miss storm).
	CacheLookup Point = "explore.cache.lookup"
	// ServeAdmit arms in the cactid-serve admission gate, before a
	// request waits for a slot; a Cancel fault sheds the request.
	ServeAdmit Point = "serve.admit"
	// ServeHandler arms inside the gated handler, after admission
	// and deadline setup, before the endpoint logic runs.
	ServeHandler Point = "serve.handler"
	// StoreGet arms on every durable-store read (internal/store), a
	// tier-1 lookup after a tier-0 miss. A Cancel fault surfaces as a
	// read error the engine must absorb as a miss; a Miss fault makes
	// the store report the key absent.
	StoreGet Point = "store.get"
	// StorePut arms before a durable-store append. A Cancel fault
	// drops the write: the result stays correct but unpersisted, and
	// the caller must carry on.
	StorePut Point = "store.put"
	// StoreRecover arms once per store.Open, before segment recovery.
	// Injected faults are absorbed into the recovery counters —
	// recovery is best-effort by contract and must always yield a
	// usable store.
	StoreRecover Point = "store.recover"
	// FabricDispatch arms in the sweep coordinator before each batch
	// RPC to a worker (internal/fabric). A Cancel fault is absorbed as
	// a transport failure: the batch is sharded again over the healthy
	// workers that have not failed it, never lost and never solved
	// twice.
	FabricDispatch Point = "fabric.dispatch"
)

// Points lists every named injection point, in catalog order.
func Points() []Point {
	return []Point{ExploreWorker, ExploreSolve, CacheLookup, ServeAdmit, ServeHandler,
		StoreGet, StorePut, StoreRecover, FabricDispatch}
}

// Fault is the kind of failure a rule injects.
type Fault uint8

const (
	// Cancel makes Inject return an error satisfying
	// errors.Is(err, context.Canceled) — a forced cancellation.
	Cancel Fault = iota
	// Latency makes Inject sleep for the rule's Latency (or until
	// the context is done, whichever is first).
	Latency
	// Panic makes Inject panic with a PanicValue. The instrumented
	// layer is expected to recover and convert it to an error.
	Panic
	// Miss makes ForceMiss report true: the caller should treat a
	// cache hit as a miss.
	Miss
	nFaults
)

func (f Fault) String() string {
	switch f {
	case Cancel:
		return "cancel"
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	case Miss:
		return "miss"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// Rule arms one fault at one point with a firing rate.
type Rule struct {
	Point Point
	Fault Fault
	// Rate is the per-arm firing probability in [0, 1]. The decision
	// is deterministic per arm index (see the package comment), so a
	// Rate of 1 fires on every arm and 0 never fires.
	Rate float64
	// Latency is the injected delay for Latency faults.
	Latency time.Duration
}

// ErrInjected marks every chaos-injected cancellation, so layers can
// distinguish forced faults from organic ones in logs and tests.
var ErrInjected = errors.New("chaos: injected fault")

// PanicValue is the value a Panic fault panics with.
type PanicValue struct {
	Point Point
	Arm   int64 // the arm index that fired
}

func (p PanicValue) String() string {
	return fmt.Sprintf("chaos: injected panic at %s (arm %d)", p.Point, p.Arm)
}

// PointStats is a snapshot of one point's counters.
type PointStats struct {
	Armed     int64 `json:"armed"` // times the point was reached
	Cancels   int64 `json:"cancels"`
	Latencies int64 `json:"latencies"`
	Panics    int64 `json:"panics"`
	Misses    int64 `json:"misses"`
}

// Fired returns the total number of injected faults at the point.
func (s PointStats) Fired() int64 { return s.Cancels + s.Latencies + s.Panics + s.Misses }

type pointState struct {
	armed atomic.Int64
	fired [nFaults]atomic.Int64
	rules []Rule // immutable after New
}

// Injector injects faults according to its rules. All methods are
// safe for concurrent use, and safe on a nil receiver (no-ops).
type Injector struct {
	seed   uint64
	points map[Point]*pointState // immutable after New
}

// New builds an Injector from a seed and a rule set. Multiple rules
// may arm the same point; each occupies its own decision lane, in the
// order given.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, points: make(map[Point]*pointState)}
	for _, r := range rules {
		st := in.points[r.Point]
		if st == nil {
			st = &pointState{}
			in.points[r.Point] = st
		}
		st.rules = append(st.rules, r)
	}
	return in
}

// Enabled reports whether the injector is armed at all.
func (in *Injector) Enabled() bool { return in != nil && len(in.points) > 0 }

// splitmix64 is the decision hash: deterministic, well-mixed, cheap.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// fires decides rule lane l at arm n of point p.
func (in *Injector) fires(p Point, l int, n int64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	r := splitmix64(in.seed ^ fnv64(string(p)) ^ uint64(n)<<8 ^ uint64(l))
	return float64(r>>11)/(1<<53) < rate
}

// Inject arms the point: depending on the armed rules it may sleep
// (Latency), panic (Panic), or return a cancellation error (Cancel).
// A nil Injector, or a point with no rules, returns nil immediately.
// Rules are evaluated in order; the first Cancel or Panic that fires
// ends the call, while latencies accumulate before it.
func (in *Injector) Inject(ctx context.Context, p Point) error {
	if in == nil {
		return nil
	}
	st := in.points[p]
	if st == nil {
		return nil
	}
	n := st.armed.Add(1)
	for l, r := range st.rules {
		if r.Fault == Miss || !in.fires(p, l, n, r.Rate) {
			continue
		}
		switch r.Fault {
		case Latency:
			st.fired[Latency].Add(1)
			if err := sleep(ctx, r.Latency); err != nil {
				return err
			}
		case Cancel:
			st.fired[Cancel].Add(1)
			return fmt.Errorf("%w: cancel at %s (arm %d): %w", ErrInjected, p, n, context.Canceled)
		case Panic:
			st.fired[Panic].Add(1)
			panic(PanicValue{Point: p, Arm: n})
		}
	}
	return nil
}

// ForceMiss arms the point and reports whether a Miss fault fired:
// the caller should treat its cache hit as a miss. Non-Miss rules at
// the point are ignored here.
func (in *Injector) ForceMiss(p Point) bool {
	if in == nil {
		return false
	}
	st := in.points[p]
	if st == nil {
		return false
	}
	n := st.armed.Add(1)
	for l, r := range st.rules {
		if r.Fault == Miss && in.fires(p, l, n, r.Rate) {
			st.fired[Miss].Add(1)
			return true
		}
	}
	return false
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Snapshot returns the per-point counters for every armed point. A
// nil Injector returns nil.
func (in *Injector) Snapshot() map[Point]PointStats {
	if in == nil {
		return nil
	}
	out := make(map[Point]PointStats, len(in.points))
	for p, st := range in.points {
		out[p] = PointStats{
			Armed:     st.armed.Load(),
			Cancels:   st.fired[Cancel].Load(),
			Latencies: st.fired[Latency].Load(),
			Panics:    st.fired[Panic].Load(),
			Misses:    st.fired[Miss].Load(),
		}
	}
	return out
}
