package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cactid/internal/explore"
	"cactid/internal/fabric"
)

// setupStarts is how many times a run starts its servers; setup_s is
// the median exec-to-ready time. Half the starts come before the timed
// phase, the last of them serving it, and half after, so a burst of
// load on the host moves only some of them.
const setupStarts = 20

// replayShare is the prefix of the timed requests the in-process
// replays answer.
const replayShare = 0.25

const mb = 1 << 20

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	serve   string // cactid-serve binary
	work    string // temporary files, inside the checkout
	out     string // trace files and runs.jsonl
	minTail int    // samples required beyond a percentile
}

// result is one workload run: every metric it could measure, by name.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	TimedS    float64            `json:"timed_s"` // wall time of the timed phase
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checked   int                `json:"checked"` // answers compared with the reference
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Values    map[string]float64 `json:"values"`
	Samples   map[string]int     `json:"samples"` // sample count behind each percentile
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// setPct records a percentile of xs under name, with its sample count;
// it stays absent when too few samples lie beyond it.
func (r *result) setPct(name string, xs []float64, p float64, minTail int) bool {
	r.Samples[name] = len(xs)
	v, ok := percentile(xs, p, minTail)
	if ok {
		r.Values[name] = v
	}
	return ok
}

func runWorkload(ctx context.Context, o options, w *workload) (*result, error) {
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fl := newFleet(o.serve, dir)
	defer fl.killAll()
	c := newClient()
	defer c.CloseIdleConnections()

	pl := w.plan(w, o.seed)
	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace,
		Values: map[string]float64{}, Samples: map[string]int{}}

	var crash string
	if w.store {
		// Prefill a store, then SIGKILL its server: every later start
		// recovers a copy of this crashed image.
		crash = filepath.Join(dir, "crash")
		t, _, err := fl.startTopology(ctx, c, w, crash)
		if err != nil {
			return nil, err
		}
		if err := sendAll(ctx, c, t.front.url, pl.warm); err != nil {
			return nil, err
		}
		t.kill(fl)
	}
	top, setups, err := startTimes(ctx, fl, c, w, dir, crash, setupStarts/2)
	if err != nil {
		return nil, err
	}
	if crash == "" && len(pl.warm) > 0 {
		if err := sendAll(ctx, c, top.front.url, pl.warm); err != nil {
			return nil, err
		}
	}

	slice, ph, before, after, clientCPU, err := timedPhase(ctx, c, top, pl, w.requests(o.seconds), capFactor*o.seconds, o.seed)
	if err != nil {
		return nil, err
	}
	var rss int64
	for _, p := range top.procs {
		hwm, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += hwm
	}
	res.set("rss_peak_mb", float64(rss)/mb)
	top.kill(fl)
	last, more, err := startTimes(ctx, fl, c, w, dir, crash, setupStarts-setupStarts/2)
	if err != nil {
		return nil, err
	}
	last.kill(fl)
	res.set("setup_s", median(append(setups, more...)))

	o.endToEnd(res, ph)
	counters(res, w, ph, before, after, clientCPU)

	var orc oracle
	if err := checkAnswers(ctx, res, &orc, ph); err != nil {
		return nil, err
	}
	solverMetrics(res, &orc.log, o.minTail)

	if o.trace {
		env := &replayEnv{w: w, fleet: fl, client: c, work: dir, crash: crash, warm: pl.warm, slice: slice}
		if err := o.traced(ctx, res, env, ph); err != nil {
			return nil, err
		}
	}
	res.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// startTimes starts the workload's servers n times, each on a fresh
// copy of the crashed store when there is one, and returns the last
// start, still running, with every exec-to-ready time.
func startTimes(ctx context.Context, fl *fleet, c *http.Client, w *workload, dir, crash string, n int) (*topology, []float64, error) {
	var setups []float64
	var top *topology
	store := ""
	for i := 0; i < n; i++ {
		if top != nil {
			top.kill(fl)
			os.RemoveAll(store)
		}
		store = ""
		if crash != "" {
			var err error
			if store, err = os.MkdirTemp(dir, "store-"); err != nil {
				return nil, nil, err
			}
			if err := copyDir(store, crash); err != nil {
				return nil, nil, err
			}
		}
		t, d, err := fl.startTopology(ctx, c, w, store)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		top = t
	}
	return top, setups, nil
}

// timedPhase runs the untimed first tenth of the sequence (the warm
// slice, which it returns), so caches, heaps and connections are in
// their steady state, and then n timed requests between two counter
// snapshots. The generator runs at
// GOMAXPROCS=1 meanwhile: its two clients wait on the network, and
// its idle scheduler threads would otherwise spin on the cores the
// servers need.
func timedPhase(ctx context.Context, c *http.Client, top *topology, pl *plan, n int, limit time.Duration, seed uint64) (slice []request, ph phase, before, after snapshot, clientCPU float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	slice = drive(ctx, c, top.front.url, pl.next, n/10, limit, func(int) bool { return false }).issued
	if before, err = takeSnapshot(ctx, c, top); err != nil {
		return
	}
	ws := func() int {
		if pl.wsSolves == nil {
			return 0
		}
		return pl.wsSolves()
	}
	cpu0, ws0 := selfCPUSeconds(), ws()
	ph = drive(ctx, c, top.front.url, pl.next, n, limit, func(i int) bool { return keepBody(seed, i) })
	clientCPU = selfCPUSeconds() - cpu0
	ph.wsSolves = ws() - ws0
	if err = ctx.Err(); err != nil {
		return
	}
	after, err = takeSnapshot(ctx, c, top)
	return
}

func answered(k kind, status int) bool {
	switch {
	case k == kSolve:
		return status == http.StatusOK || status == http.StatusUnprocessableEntity
	default:
		return status == http.StatusOK
	}
}

// endToEnd derives the user-visible metrics from the timed phase.
func (o options) endToEnd(res *result, ph phase) {
	var single, multi, all []float64
	points, bytes, shed := 0, int64(0), 0
	res.Attempted = len(ph.samples)
	res.TimedS = ph.wall.Seconds()
	for _, s := range ph.samples {
		r := ph.issued[s.pos]
		ms := float64(s.lat) / float64(time.Millisecond)
		all = append(all, ms)
		if r.kind.single() {
			single = append(single, ms)
		} else {
			multi = append(multi, ms)
		}
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			shed++
		}
		if s.err != nil || !answered(r.kind, s.status) {
			res.Failed++
			if res.Failed <= 3 {
				res.problem("request %d (%s): status %d, %v %.200s", r.idx, r.kind, s.status, s.err, s.body)
			}
			continue
		}
		points += r.points
		bytes += s.bytes
	}
	res.set("points_per_s", float64(points)/ph.wall.Seconds())
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"solve_p50_ms", single, 0.5}, {"solve_p90_ms", single, 0.9}, {"sweep_p50_ms", multi, 0.5}, {"sweep_p90_ms", multi, 0.9}} {
		if !res.setPct(p.name, p.xs, p.q, o.minTail) {
			res.problem("invalid run: %s has %d samples, too few for the percentile", p.name, len(p.xs))
		}
	}
	res.setPct("serve.req_p99_ms", all, 0.99, o.minTail)
	res.set("serve.bytes_per_point", ratio(float64(bytes), float64(points)))
	res.set("serve.shed_ratio", ratio(float64(shed), float64(res.Attempted)))
	if res.Attempted == 0 {
		res.problem("invalid run: no request completed")
	}
}

// counters derives the layer counters and validity invariants from
// the server-side deltas over the timed phase.
func counters(res *result, w *workload, ph phase, b, a snapshot, clientCPU float64) {
	points := 0
	var firsts []float64
	for _, s := range ph.samples {
		r := ph.issued[s.pos]
		if s.err == nil && answered(r.kind, s.status) {
			points += r.points
			if r.kind == kJob {
				firsts = append(firsts, float64(s.first)/float64(time.Millisecond))
			}
		}
	}
	de := func(f func(explore.Stats) int64) float64 { return float64(f(a.eng) - f(b.eng)) }
	solves := de(func(s explore.Stats) int64 { return s.Solves })
	hits := de(func(s explore.Stats) int64 { return s.CacheHits })
	t1hits := de(func(s explore.Stats) int64 { return s.Tier1Hits })
	t1miss := de(func(s explore.Stats) int64 { return s.Tier1Misses })
	evictions := de(func(s explore.Stats) int64 { return s.CacheEvictions })
	res.set("explore.tier0_hit_ratio", ratio(hits, hits+t1hits+solves))
	res.set("explore.tier1_hit_ratio", ratio(t1hits, t1hits+t1miss))
	res.set("explore.evictions_per_req", ratio(evictions, float64(res.Attempted)))
	res.set("explore.solves_per_point", ratio(solves, float64(points)))
	if solves > 0 {
		// The engine adds every solve's core.SolveStats to these.
		considered := de(func(s explore.Stats) int64 { return s.OrgsConsidered })
		res.set("array.orgs_considered_per_solve", considered/solves)
		res.set("array.orgs_built_per_solve", de(func(s explore.Stats) int64 { return s.OrgsBuilt })/solves)
		res.set("array.prune_ratio", ratio(de(func(s explore.Stats) int64 { return s.OrgsPruned }), considered))
		res.set("array.bound_prune_ratio", ratio(de(func(s explore.Stats) int64 { return s.OrgsPrunedBound }), considered))
	}

	var alloc, heap, gc, serverCPU, busy float64
	for i := range a.procs {
		alloc += a.procs[i].totalAlloc - b.procs[i].totalAlloc
		heap += a.procs[i].heapAlloc
		gc += a.procs[i].gcFraction / float64(len(a.procs))
		serverCPU += a.procs[i].cpu - b.procs[i].cpu
		if w.cluster && i < 2 {
			busy += a.procs[i].latSum - b.procs[i].latSum
		}
	}
	res.set("runtime.alloc_kb_per_point", ratio(alloc/1024, float64(points)))
	res.set("runtime.gc_cpu_fraction", gc)
	res.set("runtime.heap_mb_end", heap/mb)
	res.set("bench.client_cpu_share", ratio(clientCPU, clientCPU+serverCPU))

	switch {
	case w.store:
		res.set("store.bytes_on_disk_mb", float64(a.storeBytes)/mb)
		res.set("store.corrupt_reads", float64(a.corrupt-b.corrupt))
		res.setPct("serve.job_first_result_ms", firsts, 0.5, 0)
		if t1hits < 0.5*float64(ph.wsSolves) {
			res.problem("invariant: %v tier-1 hits for %d working-set solves (want at least half)", t1hits, ph.wsSolves)
		}
		if evictions == 0 {
			res.problem("invariant: no tier-0 evictions")
		}
		if a.corrupt != b.corrupt {
			res.problem("invariant: %d corrupt store reads", a.corrupt-b.corrupt)
		}
	case w.cluster:
		df := func(f func(fabric.Status) int64) float64 { return float64(f(a.fab) - f(b.fab)) }
		sweeps := df(func(s fabric.Status) int64 { return s.Sweeps })
		local := df(func(s fabric.Status) int64 { return s.LocalPoints })
		dup := df(func(s fabric.Status) int64 { return s.DuplicateResults })
		res.set("fabric.chunks_per_sweep", ratio(df(func(s fabric.Status) int64 { return s.ChunksDispatched }), sweeps))
		res.set("fabric.steals_per_sweep", ratio(df(func(s fabric.Status) int64 { return s.ChunksStolen }), sweeps))
		res.set("fabric.reroutes", df(func(s fabric.Status) int64 { return s.ChunksRerouted }))
		res.set("fabric.local_points", local)
		res.set("fabric.duplicate_results", dup)
		res.set("fabric.worker_busy_share", busy/(2*ph.wall.Seconds()))
		if dup != 0 || local != 0 {
			res.problem("invariant: %v duplicate results and %v local-fallback points in the fabric", dup, local)
		}
	case w.name == "repeat-hot":
		if solves != 0 {
			res.problem("invariant: %v solver runs while the working set was resident", solves)
		}
	case w.name == "dse-cold":
		if v := res.Values["explore.tier0_hit_ratio"]; v >= 0.01 {
			res.problem("invariant: tier-0 hit ratio %.4f on fresh grids", v)
		}
	}
}

// checkAnswers compares every kept body with the in-process reference.
func checkAnswers(ctx context.Context, res *result, orc *oracle, ph phase) error {
	var reqs []request
	var kept []sample
	for _, s := range ph.samples {
		r := ph.issued[s.pos]
		if s.body != nil && s.err == nil && answered(r.kind, s.status) {
			reqs = append(reqs, r)
			kept = append(kept, s)
		}
	}
	if err := orc.prepare(ctx, reqs); err != nil {
		return err
	}
	for i, s := range kept {
		if err := orc.check(reqs[i], s); err != nil {
			res.Failed++
			res.problem("request %d (%s) answer is wrong: %v", reqs[i].idx, reqs[i].kind, err)
		}
	}
	res.Checked = len(kept)
	if len(kept) == 0 {
		res.problem("invalid run: no answer was checked")
	}
	return nil
}

// solverMetrics reports the core layer from the oracle's reference
// solves: an offline re-solve, after the timed phase, of the distinct
// specs in the checked bodies. It is the solver's own cost on this
// workload's specs, whether or not the server had to solve them.
func solverMetrics(res *result, l *solveLog, minTail int) {
	res.setPct("core.solve_us_p50", l.us, 0.5, minTail)
	res.setPct("core.solve_us_p90", l.us, 0.9, minTail)
	if len(l.us) > 0 {
		res.set("core.nosolution_ratio", float64(l.noSol)/float64(len(l.us)))
	}
}

// traced replays a prefix of the timed requests in-process, once
// plain and once with spans, and derives the per-layer attribution.
func (o options) traced(ctx context.Context, res *result, env *replayEnv, ph phase) error {
	n := int(float64(len(ph.issued)) * replayShare)
	n = min(len(ph.issued), max(n, 100))
	reqs := ph.issued[:n]

	plain, err := env.build(ctx, nil, 0)
	if err != nil {
		return err
	}
	plainWall, perr := plain.replay(ctx, reqs)
	plain.close(env.fleet)

	rec := newRecorder()
	sys, err := env.build(ctx, rec, 1)
	if err != nil {
		return err
	}
	latSum := func() float64 {
		sum := 0.0
		for _, p := range sys.workers {
			var m metricsBody
			if getJSON(ctx, env.client, p.url+"/metrics", &m) == nil {
				sum += m.Latency.Sum
			}
		}
		return sum
	}
	lat0 := latSum()
	tracedWall, terr := sys.replay(ctx, reqs)
	workerTime := latSum() - lat0
	sys.close(env.fleet)
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range []error{perr, terr} {
		if err != nil {
			res.problem("%v", err)
		}
	}
	res.set("bench.trace_overhead_share", tracedWall.Seconds()/plainWall.Seconds()-1)

	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	layerMetrics(res, spans, reqs, ph, workerTime, o.minTail)
	fingerprintCost(res, reqs)

	self := selfTimes(spans)
	byLayer := map[string]int64{}
	for i, s := range spans {
		byLayer[layerOf(s.Name)] += self[i]
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(o.out, env.w.name+".trace.json"),
		traceFile{Workload: env.w.name, Seed: o.seed, Requests: n, SelfNS: byLayer, Spans: spans})
}

// layerMetrics reads the per-layer numbers off the replay's spans.
func layerMetrics(res *result, spans []span, reqs []request, ph phase, workerTime float64, minTail int) {
	us := func(s span) float64 { return float64(s.End-s.Start) / float64(time.Microsecond) }
	isParent := map[int64]bool{}
	for _, s := range spans {
		isParent[s.Parent] = true
	}
	var decode, encode, rootSum, dispatchUS float64
	var dispatchPoints int
	var tier0, gets, puts, dispatch []float64
	childSum := map[int64]float64{}
	solving := map[int][]span{} // core spans by request
	for _, s := range spans {
		switch {
		case decodeSpan(s.Name):
			decode += us(s)
		case encodeSpan(s.Name):
			encode += us(s)
		case s.Name == "explore.Engine.Solve" && s.Note == "hit" && !isParent[s.ID]:
			tier0 = append(tier0, us(s))
		case s.Name == "store.Tiered.Lookup":
			gets = append(gets, us(s))
		case s.Name == "store.Tiered.Save":
			puts = append(puts, us(s))
		case s.Name == "store.Open":
			res.set("store.recover_ms", us(s)/1000)
		case s.Name == "fabric.Worker.SolveBatch":
			dispatch = append(dispatch, us(s)/1000)
			dispatchUS += us(s)
			var k int
			fmt.Sscan(s.Note, &k)
			dispatchPoints += k
		}
		if layerOf(s.Name) == "core" {
			solving[s.Req] = append(solving[s.Req], s)
		}
		if strings.HasPrefix(s.Name, "request/") {
			rootSum += us(s)
		} else if s.Parent != 0 {
			childSum[s.Parent] += us(s)
		}
	}
	points := 0
	for _, r := range reqs {
		points += r.points
	}
	res.set("serve.decode_us_per_req", decode/float64(len(reqs)))
	res.set("serve.encode_us_per_point", ratio(encode, float64(points)))
	if len(solving) > 0 {
		// A sweep's solves overlap on the engine's workers: the share
		// is the union of a request's solver intervals over its length.
		var covered int64
		for _, ss := range solving {
			covered += union(ss)
		}
		res.set("core.solve_share", float64(covered)/float64(time.Microsecond)/rootSum)
	}
	res.setPct("explore.tier0_hit_us", tier0, 0.5, minTail)
	if len(gets) > 0 {
		res.setPct("store.get_us_p50", gets, 0.5, minTail)
		res.setPct("store.put_us_p50", puts, 0.5, minTail)
	}
	if len(dispatch) > 0 {
		res.setPct("fabric.dispatch_ms_p50", dispatch, 0.5, minTail)
		res.set("fabric.wire_us_per_point", ratio(dispatchUS-workerTime*1e6, float64(dispatchPoints)))
	}

	// Unattributed share: how much of the untraced HTTP median the
	// traced layers do not account for.
	var httpSingle, httpMulti, layerSingle, layerMulti []float64
	for _, s := range ph.samples {
		r := ph.issued[s.pos]
		if s.pos >= len(reqs) || s.err != nil || !answered(r.kind, s.status) {
			continue // only the replayed prefix compares like with like
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		if r.kind.single() {
			httpSingle = append(httpSingle, ms)
		} else {
			httpMulti = append(httpMulti, ms)
		}
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "request/") {
			continue
		}
		ms := childSum[s.ID] / 1000
		if s.Name == "request/"+kSolve.String() {
			layerSingle = append(layerSingle, ms)
		} else {
			layerMulti = append(layerMulti, ms)
		}
	}
	if len(httpSingle) > 0 && len(layerSingle) > 0 {
		res.set("serve.unattributed_share_solve", 1-median(layerSingle)/median(httpSingle))
	}
	if len(httpMulti) > 0 && len(layerMulti) > 0 {
		res.set("serve.unattributed_share_sweep", 1-median(layerMulti)/median(httpMulti))
	}
}

// fingerprintCost times core.Spec.Fingerprint over the replayed
// specs, outside any request: the engine fingerprints internally, so
// a span inside the request would count the work twice.
func fingerprintCost(res *result, reqs []request) {
	var specs []func() (string, error)
	for _, r := range reqs {
		d, err := decodeRequest(r)
		if err != nil {
			continue
		}
		for _, s := range d.specs {
			specs = append(specs, s.Fingerprint)
		}
	}
	if len(specs) == 0 {
		return
	}
	var us []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, f := range specs {
			f()
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(specs)))
	}
	sort.Float64s(us)
	res.set("explore.fingerprint_us", us[len(us)/2])
}
