package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cactid/internal/array"
	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/fabric"
	"cactid/internal/store"
)

// config collects the serving knobs.
type config struct {
	addr        string
	timeout     time.Duration // per-request budget (ceiling; X-Cactid-Timeout may shorten it)
	maxInFlight int           // bound on concurrently served /v1 requests and on running sweep jobs
	queueDepth  int           // waiters admitted beyond maxInFlight (-1 = no queue, 0 = 2*maxInFlight)
	queueWait   time.Duration // longest a queued request waits for a slot before 429
	maxPoints   int           // most points one grid or spec list may carry, and finished jobs keep resident
	cacheBound  int           // result-cache entry bound (-1 = unbounded, 0 = default)
	workers     int           // solver pool size (0 = GOMAXPROCS)
	pprof       bool          // expose net/http/pprof under /debug/pprof/
	storeDir    string        // durable result-store directory ("" = in-memory only)

	// checkpointEvery sets the sweep-job chunk size between durable
	// checkpoints (0 = 32); only tests shrink it, to exercise resume.
	checkpointEvery int

	// Coordinator mode (internal/fabric): sweeps shard across the
	// worker nodes by spec fingerprint, one batch per owner, with
	// failure reroute; this node's own engine is the fallback.
	coordinator    bool
	workerNodes    string        // comma-separated worker base URLs; more join via /v1/fabric/register
	heartbeatEvery time.Duration // worker health-probe period (0 = no background probing)

	// solver overrides core.OptimizeContext; tests inject slow or
	// counting solvers through it.
	solver func(context.Context, core.Spec) (*core.Solution, error)
	// chaos arms the serve.admit/serve.handler injection points and
	// is shared with the engine and cache; nil disables injection.
	chaos *chaos.Injector
}

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram; requests slower than the last bound land in +Inf.
const nLatencyBuckets = 13

var latencyBuckets = [nLatencyBuckets]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics are the expvar-style counters surfaced on /metrics. All
// fields are updated atomically; the handler publishes a consistent-
// enough snapshot without locks.
type metrics struct {
	requests  [nEndpoints]atomic.Int64
	errors    atomic.Int64 // 4xx/5xx responses
	inFlight  atomic.Int64
	histogram [nLatencyBuckets + 1]atomic.Int64
	latSumNS  atomic.Int64
	latCount  atomic.Int64

	// Admission control: the bounded queue behind the in-flight
	// semaphore and each way a request can be shed.
	queued        atomic.Int64 // requests currently waiting for a slot
	queueMax      atomic.Int64 // high-water mark of queued (never exceeds queueDepth)
	rejectedQueue atomic.Int64 // 429: queue already full
	rejectedWait  atomic.Int64 // 429: slot wait exceeded queueWait
	rejectedDrain atomic.Int64 // 503: server draining for shutdown
	panics        atomic.Int64 // handler panics recovered into error responses
}

// high-water update for the queued gauge.
func maxGauge(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

type endpoint int

const (
	epSolve endpoint = iota
	epSweep
	epPareto
	epSolveBatch
	epJobSubmit
	epJobGet
	epJobStream
	epStats
	epFabric
	epFabricRegister
	epHealthz
	epMetrics
	nEndpoints
)

func (e endpoint) String() string {
	return [nEndpoints]string{"solve", "sweep", "pareto", "solve_batch",
		"job_submit", "job_get", "job_stream", "stats", "fabric",
		"fabric_register", "healthz", "metrics"}[e]
}

func (m *metrics) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if sec <= latencyBuckets[i] {
			break
		}
	}
	m.histogram[i].Add(1)
	m.latSumNS.Add(int64(d))
	m.latCount.Add(1)
}

// defaultCacheBound is the result-cache entry bound when the flag is
// left at its zero value. One cached solve holds the engine's
// projection of its design, not the design: about 1 KB of heap with
// its key and bookkeeping, and about 1.6 KB once a hit on it has been
// rendered and it keeps its value table (TestTier0HeapPerEntry
// measures 1.1-1.2 KB and 0.4 KB more over 3000 generated specs of
// every technology). 16Ki entries keep a hot sweep working set while
// bounding a long-lived server's tier 0 to about 16-26 MB.
const defaultCacheBound = 16384

// server is the cactid-serve HTTP API: the exploration engine behind
// per-request deadlines and a two-stage admission gate (in-flight
// semaphore + bounded wait queue), with a drain state for shutdown.
type server struct {
	eng     *explore.Engine
	cfg     config
	sem     chan struct{}
	mux     *http.ServeMux
	metrics metrics

	// sweep is the node's solve path for multi-point requests: the
	// local engine in worker mode, the fabric coordinator's sharded
	// sweep in coordinator mode. fab is nil outside coordinator mode.
	sweep func(context.Context, []core.Spec) []explore.Result
	fab   *fabric.Coordinator

	// Durability: st is the disk-backed result store (nil without
	// -store) serving as the engine's tier 1 and as the sweep-job
	// checkpoint log; jobs owns the background sweep jobs.
	st   *store.Store
	jobs *jobManager

	// Shutdown drain: drain() flips draining and closes drainCh so
	// queued waiters abandon their slot wait immediately.
	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once
}

func newServer(cfg config) (*server, error) {
	if cfg.timeout <= 0 {
		cfg.timeout = 60 * time.Second
	}
	if cfg.maxInFlight <= 0 {
		cfg.maxInFlight = 32
	}
	switch {
	case cfg.queueDepth < 0:
		cfg.queueDepth = 0 // no queue: shed as soon as the semaphore is full
	case cfg.queueDepth == 0:
		cfg.queueDepth = 2 * cfg.maxInFlight
	}
	if cfg.queueWait <= 0 {
		cfg.queueWait = 5 * time.Second
	}
	if cfg.queueWait > cfg.timeout {
		cfg.queueWait = cfg.timeout
	}
	if cfg.maxPoints <= 0 {
		cfg.maxPoints = 4096
	}
	switch {
	case cfg.cacheBound < 0:
		cfg.cacheBound = 0 // explore.Options.CacheEntries: 0 = unbounded
	case cfg.cacheBound == 0:
		cfg.cacheBound = defaultCacheBound
	}
	var st *store.Store
	var tier1 store.Tiered
	if cfg.storeDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: cfg.storeDir, Chaos: cfg.chaos})
		if err != nil {
			return nil, fmt.Errorf("open result store: %w", err)
		}
		tier1 = store.NewSolutions(st)
	}
	s := &server{
		eng: explore.New(explore.Options{Workers: cfg.workers,
			Solver: cfg.solver, CacheEntries: cfg.cacheBound, Chaos: cfg.chaos, Tier1: tier1}),
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.maxInFlight),
		mux:     http.NewServeMux(),
		drainCh: make(chan struct{}),
		st:      st,
	}
	s.sweep = s.eng.Sweep
	if cfg.coordinator {
		s.fab = newFabric(cfg, s.eng)
		s.sweep = func(ctx context.Context, specs []core.Spec) []explore.Result {
			return s.fab.Sweep(ctx, specs, nil)
		}
		s.mux.HandleFunc("GET /v1/fabric", s.handleFabric)
		s.mux.HandleFunc("POST /v1/fabric/register", s.handleFabricRegister)
	}
	s.jobs = newJobManager(s.sweep, s.acquire, st, cfg)
	s.mux.HandleFunc("POST /v1/solve", s.gated(epSolve, s.handleSolve))
	// Like the job views, /v1/stats is a read-only counter snapshot
	// (the coordinator polls it on every worker for cluster-wide
	// aggregation) and bypasses the admission gate.
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sweep", s.gated(epSweep, s.handleSweep))
	s.mux.HandleFunc("POST /v1/pareto", s.gated(epPareto, s.handlePareto))
	s.mux.HandleFunc("POST /v1/solve-batch", s.gated(epSolveBatch, s.handleSolveBatch))
	s.mux.HandleFunc("POST /v1/sweep-jobs", s.gated(epJobSubmit, s.handleJobSubmit))
	// Polling and streaming are read-only views of background work:
	// they hold no solver resources, so they bypass the admission
	// gate — a streamer parked for minutes must not pin a /v1 slot.
	s.mux.HandleFunc("GET /v1/sweep-jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/sweep-jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.pprof {
		// Ungated by the semaphore: profiling must stay reachable while
		// /v1 is saturated. Loopback-only: the profile endpoints leak
		// symbol tables, heap contents and command lines, so they are
		// never served to non-local peers even when enabled.
		s.mux.HandleFunc("/debug/pprof/", s.loopbackOnly(pprof.Index))
		s.mux.HandleFunc("/debug/pprof/cmdline", s.loopbackOnly(pprof.Cmdline))
		s.mux.HandleFunc("/debug/pprof/profile", s.loopbackOnly(pprof.Profile))
		s.mux.HandleFunc("/debug/pprof/symbol", s.loopbackOnly(pprof.Symbol))
		s.mux.HandleFunc("/debug/pprof/trace", s.loopbackOnly(pprof.Trace))
	}
	// Interrupted sweep jobs found in the store pick up where their
	// last checkpoint left off.
	s.jobs.resumeAll()
	return s, nil
}

// bodyBytesPerPoint is the request-body allowance per point: a fully
// populated spec is about 500 bytes of compact JSON, so 1 KiB leaves
// room for indented bodies.
const bodyBytesPerPoint = 1 << 10

// ServeHTTP bounds every request body before routing: a body may carry
// at most maxPoints specs, plus one allowance for a grid's base spec
// and the envelope, so an oversized body is refused (413) without
// being decoded.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.maxPoints+1)*bodyBytesPerPoint)
	s.mux.ServeHTTP(w, r)
}

// close releases the server's background resources: job workers stop
// at their next chunk boundary (leaving resumable checkpoints) and
// the durable store is flushed and closed. Call after drain().
func (s *server) close() {
	s.jobs.drain()
	if s.fab != nil {
		s.fab.Close()
	}
	if s.st != nil {
		s.st.Close()
	}
}

// loopbackOnly rejects requests whose peer address is not a loopback
// interface. RemoteAddr is the transport-level peer as filled in by
// net/http (not a spoofable header), so this confines the handler to
// clients on the same host.
func (s *server) loopbackOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
			s.writeError(w, httpError{http.StatusForbidden, errors.New("pprof is loopback-only")})
			return
		}
		h(w, r)
	}
}

// drain moves the server into its shutdown state: every /v1 request
// — queued or newly arriving — is answered 503 with a Retry-After, so
// load balancers move on while in-flight work finishes. Idempotent.
func (s *server) drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// retryAfterSeconds is the backoff hint sent with every shed
// response: long enough for the queue to turn over once.
func (s *server) retryAfterSeconds() string {
	sec := int(s.cfg.queueWait / time.Second)
	if sec < 1 {
		sec = 1
	}
	return fmt.Sprintf("%d", sec)
}

// The admission gate's refusals. writeError answers each, like every
// other 429 and 503, with a Retry-After hint.
var (
	errQueueFull  = httpError{http.StatusTooManyRequests, errors.New("request queue full")}
	errQueueWait  = httpError{http.StatusTooManyRequests, errors.New("no capacity within the queue wait budget")}
	errChaosAdmit = httpError{http.StatusTooManyRequests, errors.New("admission rejected (chaos)")}
	errDraining   = httpError{http.StatusServiceUnavailable, errors.New("server is draining")}
)

// acquire runs the admission state machine: refuse while draining,
// else take a slot immediately, else join the bounded queue and wait.
// It returns the slot's release, or the refusal: 429 when the queue is
// full or the wait expires, 503 when draining, or ctx's error when the
// caller gave up while queued. /metrics admission counts every 429 and
// 503.
func (s *server) acquire(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		s.metrics.rejectedDrain.Add(1)
		return nil, errDraining
	}
	if err := s.cfg.chaos.Inject(ctx, chaos.ServeAdmit); err != nil {
		// An injected admission fault sheds the request exactly
		// like a full queue.
		s.metrics.rejectedQueue.Add(1)
		return nil, errChaosAdmit
	}
	select {
	case s.sem <- struct{}{}:
		s.metrics.inFlight.Add(1)
		return s.release, nil
	default:
	}
	// Semaphore full: join the queue if there is room.
	q := s.metrics.queued.Add(1)
	defer s.metrics.queued.Add(-1)
	if q > int64(s.cfg.queueDepth) {
		s.metrics.rejectedQueue.Add(1)
		return nil, errQueueFull
	}
	maxGauge(&s.metrics.queueMax, q)
	wait := time.NewTimer(s.cfg.queueWait)
	defer wait.Stop()
	select {
	case s.sem <- struct{}{}:
		s.metrics.inFlight.Add(1)
		return s.release, nil
	case <-wait.C:
		s.metrics.rejectedWait.Add(1)
		return nil, errQueueWait
	case <-s.drainCh:
		s.metrics.rejectedDrain.Add(1)
		return nil, errDraining
	case <-ctx.Done():
		return nil, ctx.Err() // 499: the client hung up while queued
	}
}

// release gives back a slot acquire took.
func (s *server) release() {
	s.metrics.inFlight.Add(-1)
	<-s.sem
}

// deadline returns the request's time budget: the server ceiling,
// shortened by a client-supplied X-Cactid-Timeout (a Go duration).
// Clients can never extend past the configured timeout.
func (s *server) deadline(r *http.Request) time.Duration {
	budget := s.cfg.timeout
	if hdr := r.Header.Get("X-Cactid-Timeout"); hdr != "" {
		if d, err := time.ParseDuration(hdr); err == nil && d > 0 && d < budget {
			budget = d
		}
	}
	return budget
}

// gated wraps a /v1 handler with the request counters, the admission
// gate (acquire), the per-request deadline, panic confinement and
// latency recording.
func (s *server) gated(ep endpoint, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests[ep].Add(1)
		defer func() {
			if v := recover(); v != nil {
				// A handler bug must not kill the connection serving
				// goroutine silently: count it and answer (best
				// effort — headers may already be out).
				s.metrics.panics.Add(1)
				s.writeError(w, fmt.Errorf("handler panic: %v", v))
			}
		}()
		release, err := s.acquire(r.Context())
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer release()

		ctx, cancel := context.WithTimeout(r.Context(), s.deadline(r))
		defer cancel()
		start := time.Now()
		err = s.cfg.chaos.Inject(ctx, chaos.ServeHandler)
		if err == nil {
			err = h(w, r.WithContext(ctx))
		}
		s.metrics.observe(time.Since(start))
		if err != nil {
			s.writeError(w, err)
		}
	}
}

// httpError carries a status code chosen by the handler.
type httpError struct {
	status int
	err    error
}

func (e httpError) Error() string { return e.err.Error() }

func badRequest(err error) error { return httpError{http.StatusBadRequest, err} }

// writeError answers err as a JSON {"error": ...} body and counts it
// in /metrics responses_error. A 429 or 503 carries a Retry-After
// hint.
func (s *server) writeError(w http.ResponseWriter, err error) {
	s.metrics.errors.Add(1)
	status := http.StatusInternalServerError
	var he httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, core.ErrNoSolution):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func decode[T any](r *http.Request) (T, error) {
	var v T
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, bodyError(err)
	}
	return v, nil
}

// bodyError classifies a request body that could not be read or
// decoded: 413 past the body bound, 400 otherwise.
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return httpError{http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return badRequest(fmt.Errorf("bad request body: %w", err))
}

// checkPoints is the one multi-point bound: every grid, spec list and
// sweep job is checked here before it is expanded or solved.
func (s *server) checkPoints(what string, n int, unit string) error {
	if n > s.cfg.maxPoints {
		return badRequest(fmt.Errorf("%s has %d %s, limit %d", what, n, unit, s.cfg.maxPoints))
	}
	return nil
}

// checkBatch bounds an explicit spec list: non-empty and within
// maxPoints.
func (s *server) checkBatch(n int) error {
	if n == 0 {
		return badRequest(errors.New("specs is empty"))
	}
	return s.checkPoints("batch", n, "specs")
}

// expandGrid compiles a decoded grid request and expands it under the
// point bound; skipped counts the infeasible points dropped.
func (s *server) expandGrid(req explore.SweepRequest) (specs []core.Spec, skipped int, err error) {
	grid, err := req.Grid()
	if err != nil {
		return nil, 0, badRequest(err)
	}
	if err := s.checkPoints("grid", grid.Points(), "points"); err != nil {
		return nil, 0, err
	}
	specs, skipped = grid.Expand()
	return specs, skipped, nil
}

// handleSolve optimizes one spec. The response body is byte-identical
// to `cactid -json` for the same spec.
func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) error {
	req, err := decode[explore.SpecRequest](r)
	if err != nil {
		return err
	}
	spec, err := req.Spec()
	if err != nil {
		return badRequest(err)
	}
	if s.fab != nil {
		// Coordinator mode: hand the point to its fingerprint owner;
		// fall through to the local engine when no owner is reachable.
		if handled, err := s.proxySolveToOwner(w, r, spec); handled {
			return err
		}
	}
	sol, cached, err := s.eng.Solve(r.Context(), spec)
	if err != nil {
		return solveError(err)
	}
	return writeSolution(w, sol, cached)
}

// solveError classifies a failed solve of one spec, local or on its
// owner: the no-solution verdict and the end of the request's context
// pass through to writeError's status mapping, and anything else is an
// invalid spec.
func solveError(err error) error {
	if errors.Is(err, core.ErrNoSolution) || explore.Canceled(err) {
		return err
	}
	return badRequest(err)
}

// writeSolution renders a solved spec exactly like `cactid -json`,
// with the cache-hit marker header.
func writeSolution(w http.ResponseWriter, sol *core.Solution, cached bool) error {
	body := getBody(resultBytesHint)
	defer putBody(body)
	out, err := explore.AppendSolutionJSON(*body, sol, "", "  ")
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cactid-Cached", strconv.FormatBool(cached))
	*body = append(out, '\n')
	w.Write(*body)
	return nil
}

// batchRequest is the /v1/solve-batch body: an explicit spec list,
// for clients whose points don't form a grid. One admission pays for
// the whole batch.
type batchRequest struct {
	Specs []explore.SpecRequest `json:"specs"`
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	return s.serveSweep(w, r, s.gridSpecs, false)
}

func (s *server) handlePareto(w http.ResponseWriter, r *http.Request) error {
	return s.serveSweep(w, r, s.gridSpecs, true)
}

func (s *server) handleSolveBatch(w http.ResponseWriter, r *http.Request) error {
	if r.URL.Query().Get("wire") == "fabric" {
		return s.handleSolveBatchFabric(w, r)
	}
	return s.serveSweep(w, r, s.batchSpecs, false)
}

// serveSweep is the synchronous multi-point path of /v1/sweep,
// /v1/pareto and /v1/solve-batch: specsOf decodes the body into
// bounded specs, the node's solve path sweeps them, and the results
// are rendered. pareto keeps only the Pareto frontier; "points" still
// counts every swept point.
func (s *server) serveSweep(w http.ResponseWriter, r *http.Request,
	specsOf func(*http.Request) ([]core.Spec, int, error), pareto bool) error {
	specs, skipped, err := specsOf(r)
	if err != nil {
		return err
	}
	results := s.sweep(r.Context(), specs)
	if err := r.Context().Err(); err != nil {
		return err
	}
	swept := len(results)
	if pareto {
		results = explore.Frontier(results)
	}
	return writeResults(w, r, results, skipped, swept)
}

// gridSpecs decodes a grid body and expands it under the point bound.
func (s *server) gridSpecs(r *http.Request) ([]core.Spec, int, error) {
	req, err := decode[explore.SweepRequest](r)
	if err != nil {
		return nil, 0, err
	}
	return s.expandGrid(req)
}

// batchSpecs decodes a /v1/solve-batch spec list under the point
// bound; a batch skips no points.
func (s *server) batchSpecs(r *http.Request) ([]core.Spec, int, error) {
	req, err := decode[batchRequest](r)
	if err != nil {
		return nil, 0, err
	}
	if err := s.checkBatch(len(req.Specs)); err != nil {
		return nil, 0, err
	}
	specs := make([]core.Spec, len(req.Specs))
	for i, sr := range req.Specs {
		if specs[i], err = sr.Spec(); err != nil {
			return nil, 0, badRequest(fmt.Errorf("specs[%d]: %w", i, err))
		}
	}
	return specs, 0, nil
}

// jobJSON renders a job's poll/submit view from its record, without
// results; handleJobGet attaches those of a finished job.
func jobJSON(rec jobRecord) map[string]any {
	m := map[string]any{
		"id":        rec.ID,
		"state":     rec.State,
		"points":    rec.Points,
		"skipped":   rec.Skipped,
		"completed": rec.Cursor,
	}
	if rec.ResumedFrom > 0 {
		m["resumed_from"] = rec.ResumedFrom
	}
	if rec.Error != "" {
		m["error"] = rec.Error
	}
	return m
}

func writeJSON(w http.ResponseWriter, status int, body any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(body)
}

// handleJobSubmit validates the grid and registers a background sweep
// job; the sweep itself runs outside this request's deadline and
// admission slot. 202 + the job id, for polling or streaming; 429 while
// -max-inflight jobs are running.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	req, err := decode[explore.SweepRequest](r)
	if err != nil {
		return err
	}
	specs, skipped, err := s.expandGrid(req)
	if err != nil {
		return err
	}
	j := s.jobs.submit(req, len(specs), skipped)
	if j == nil {
		return httpError{http.StatusTooManyRequests, errors.New("too many sweep jobs running")}
	}
	return writeJSON(w, http.StatusAccepted, jobJSON(j.record()))
}

// lookupJob finds the job a poll or stream names (see jobManager.get).
// When there is none, the admission gate refused its read-back, or the
// reader went away while its results were read back, it answers the
// request itself and returns nil.
func (s *server) lookupJob(w http.ResponseWriter, r *http.Request, withResults bool) *job {
	j, err := s.jobs.get(r.Context(), r.PathValue("id"), withResults)
	if j == nil && err == nil {
		err = httpError{http.StatusNotFound, errors.New("no such sweep job")}
	}
	if err != nil {
		s.writeError(w, err)
		return nil
	}
	return j
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epJobGet].Add(1)
	withResults := r.URL.Query().Get("results") != "false"
	j := s.lookupJob(w, r, withResults)
	if j == nil {
		return
	}
	rec, results, _ := j.view()
	view := jobJSON(rec)
	if rec.State == jobDone && withResults {
		// Results are attached only on terminal success, rendered by
		// the typed encoder; writeJSON lays them out with the rest.
		arr, err := explore.AppendResultsJSON(nil, results, "", "")
		if err != nil {
			s.writeError(w, err)
			return
		}
		view["results"] = json.RawMessage(arr)
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobStream streams the job's results as they complete: NDJSON
// by default (one compact result object per line), or Server-Sent
// Events when the client asks via Accept: text/event-stream. The
// stream always replays the completed prefix first, so reconnecting
// is lossless, and ends with a terminal state line/event. The results
// available at each wake-up go out in one write and flush, or in
// writes of about streamWriteBytes when there are more.
func (s *server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epJobStream].Add(1)
	j := s.lookupJob(w, r, true)
	if j == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	body := getBody(resultBytesHint)
	b := *body
	defer func() {
		*body = b
		putBody(body)
	}()
	open := func(event string) {
		if sse {
			b = append(append(append(b, "event: "...), event...), "\ndata: "...)
		}
	}
	end := func() {
		if sse {
			b = append(b, "\n\n"...)
		} else {
			b = append(b, '\n')
		}
	}
	done := func(rec jobRecord) {
		if line, err := json.Marshal(jobJSON(rec)); err == nil {
			open("done")
			b = append(b, line...)
			end()
		}
	}
	write := func() bool {
		_, err := w.Write(b)
		if flusher != nil {
			flusher.Flush()
		}
		b = b[:0]
		return err == nil
	}

	sent := 0
	for {
		rec, results, updated := j.view()
		for ; sent < len(results); sent++ {
			if len(b) >= streamWriteBytes && !write() {
				return
			}
			open("result")
			var err error
			if b, err = explore.AppendResultJSON(b, results[sent], "", ""); err != nil {
				return
			}
			end()
		}
		if rec.State != jobRunning {
			done(rec)
			write()
			return
		}
		if len(b) > 0 && !write() {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// Workers stop at the next chunk boundary on drain; end
			// the stream so clients reconnect to the restarted server.
			done(j.record())
			write()
			return
		}
	}
}

// streamWriteBytes is about the most one stream write carries: a late
// reader of a large job gets its completed results in writes of this
// size, not rendered into one buffer.
const streamWriteBytes = 64 << 10

// resultBytesHint sizes a rendered result set's buffer: an indented
// result object is about 850 bytes.
const resultBytesHint = 1024

// maxPooledBody is the largest response buffer bodyPool keeps, about a
// 300-point result set. A larger one, from a bigger sweep, is left to
// the collector, so one large request does not pin its body.
const maxPooledBody = 256 << 10

// bodyPool recycles the response bodies writeSolution and writeResults
// render into: a body is dead once w.Write returns, and rendering
// into a fresh one was half of what a warm request allocated.
var bodyPool sync.Pool

// getBody returns an empty pooled buffer with room for at least n
// bytes. Hand it back with putBody after the body is written, storing
// any grown slice through the pointer first.
func getBody(n int) *[]byte {
	b, _ := bodyPool.Get().(*[]byte)
	if b == nil {
		b = new([]byte)
	}
	if cap(*b) < n {
		*b = make([]byte, 0, n)
	}
	*b = (*b)[:0]
	return b
}

func putBody(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// writeResults renders a result set as CSV (?format=csv) or as a JSON
// envelope whose entries carry the same fields as /v1/solve. The
// envelope is laid out as writeJSON lays out the map
// {"points", "results", "skipped"}: keys sorted, two-space indent.
func writeResults(w http.ResponseWriter, r *http.Request, results []explore.Result, skipped, swept int) error {
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		return explore.WriteCSV(w, results)
	}
	w.Header().Set("Content-Type", "application/json")
	body := getBody(resultBytesHint * (len(results) + 1))
	defer putBody(body)
	b := strconv.AppendInt(append(*body, "{\n  \"points\": "...), int64(swept), 10)
	b, err := explore.AppendResultsJSON(append(b, ",\n  \"results\": "...), results, "  ", "  ")
	if err != nil {
		return err
	}
	b = strconv.AppendInt(append(b, ",\n  \"skipped\": "...), int64(skipped), 10)
	*body = append(b, "\n}\n"...)
	_, err = w.Write(*body)
	return err
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epHealthz].Add(1)
	if s.draining.Load() {
		// Fail the readiness probe first so the balancer stops
		// routing here before the listener closes.
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epMetrics].Add(1)
	st := s.eng.Stats()
	reqs := map[string]int64{}
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		reqs[ep.String()] = s.metrics.requests[ep].Load()
	}
	buckets := make([]map[string]any, 0, len(latencyBuckets)+1)
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += s.metrics.histogram[i].Load()
		buckets = append(buckets, map[string]any{"le": ub, "count": cum})
	}
	cum += s.metrics.histogram[len(latencyBuckets)].Load()
	buckets = append(buckets, map[string]any{"le": "+Inf", "count": cum})

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mt := array.MatTableCounters()
	sub := core.SubSolveCounters()

	body := map[string]any{
		"requests":        reqs,
		"responses_error": s.metrics.errors.Load(),
		"in_flight":       s.metrics.inFlight.Load(),
		"limits": map[string]any{
			"max_inflight":            s.cfg.maxInFlight,
			"queue_depth":             s.cfg.queueDepth,
			"queue_wait_seconds":      s.cfg.queueWait.Seconds(),
			"request_timeout_seconds": s.cfg.timeout.Seconds(),
			"max_points":              s.cfg.maxPoints,
			"cache_max_entries":       st.CacheMaxEntries,
		},
		"admission": map[string]any{
			"queued":              s.metrics.queued.Load(),
			"queue_max":           s.metrics.queueMax.Load(),
			"rejected_queue_full": s.metrics.rejectedQueue.Load(),
			"rejected_wait":       s.metrics.rejectedWait.Load(),
			"rejected_draining":   s.metrics.rejectedDrain.Load(),
			"draining":            s.draining.Load(),
		},
		"cache": map[string]any{
			"solves":        st.Solves,
			"cache_hits":    st.CacheHits,
			"cache_entries": st.CacheEntries,
			"hit_ratio":     st.HitRatio(),
			"evictions":     st.CacheEvictions,
			"forced_misses": st.CacheForcedMisses,
		},
		"sweep_jobs": s.jobs.stats(),
		"solver": map[string]any{
			"orgs_considered":   st.OrgsConsidered,
			"orgs_pruned":       st.OrgsPruned,
			"orgs_pruned_bound": st.OrgsPrunedBound,
			"orgs_built":        st.OrgsBuilt,
			"prune_ratio":       st.PruneRatio(),
			"panics":            st.Panics + s.metrics.panics.Load(),
			// Process-wide mat-stage table (internal/array), shared by
			// every engine in the process.
			"mat_table_hits":   mt.Hits,
			"mat_table_misses": mt.Misses,
			"mat_table_clears": mt.Clears,
			// Process-wide: tag banks and data-array prescans sweep
			// points took from their sweep's shared sub-solve table
			// (internal/core).
			"shared_tag_hits":  sub.TagHits,
			"shared_data_hits": sub.DataHits,
		},
		"runtime": map[string]any{
			"goroutines":      runtime.NumGoroutine(),
			"gomaxprocs":      runtime.GOMAXPROCS(0),
			"heap_alloc":      mem.HeapAlloc,
			"heap_objects":    mem.HeapObjects,
			"total_alloc":     mem.TotalAlloc,
			"num_gc":          mem.NumGC,
			"gc_pause_total":  float64(mem.PauseTotalNs) / 1e9,
			"gc_cpu_fraction": mem.GCCPUFraction,
		},
		"request_latency_seconds": map[string]any{
			"count":   s.metrics.latCount.Load(),
			"sum":     float64(s.metrics.latSumNS.Load()) / 1e9,
			"buckets": buckets,
		},
	}
	if s.st != nil {
		// Tiered view: tier-0 numbers live in "cache" above; this
		// block adds the engine's durable-tier counters plus the disk
		// store's own size and recovery stats.
		ss := s.st.Stats()
		body["store"] = map[string]any{
			"tier0_hits":        st.CacheHits,
			"tier1_hits":        st.Tier1Hits,
			"tier1_misses":      st.Tier1Misses,
			"writes":            ss.Puts,
			"keys":              ss.Keys,
			"segments":          ss.Segments,
			"bytes_on_disk":     ss.BytesOnDisk,
			"recovered_records": ss.RecoveredRecords,
			"skipped_records":   ss.SkippedRecords,
			"truncated_bytes":   ss.TruncatedBytes,
			"corrupt_reads":     ss.CorruptReads,
			"get_faults":        ss.GetFaults,
			"put_faults":        ss.PutFaults,
			"recover_faults":    ss.RecoverFaults,
		}
	}
	if s.fab != nil {
		// Coordinator view: per-worker health and dispatch/reroute/
		// fallback counters for the sweep fabric.
		body["fabric"] = s.fab.Status()
	}
	if s.cfg.chaos.Enabled() {
		// Per-point fault counters, only when injection is armed: the
		// disabled server's metrics body is unchanged from before.
		ch := map[string]any{}
		for p, ps := range s.cfg.chaos.Snapshot() {
			ch[string(p)] = map[string]int64{
				"armed": ps.Armed, "cancels": ps.Cancels, "latencies": ps.Latencies,
				"panics": ps.Panics, "misses": ps.Misses,
			}
		}
		body["chaos"] = ch
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}
