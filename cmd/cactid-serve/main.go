// Command cactid-serve exposes the CACTI-D exploration engine
// (internal/explore) as a stdlib-only HTTP/JSON service, so sweeps
// and solves can be batched from any client without a Go toolchain:
//
//	cactid-serve -addr :8080 -timeout 60s -max-inflight 32
//
//	curl -s localhost:8080/v1/solve -d '{"ram":"sram","capacity":"4MB","associativity":8}'
//	curl -s localhost:8080/v1/sweep -d '{"base":{"ram":"lp-dram","mode":"seq"},
//	      "capacities":["16MB","32MB","64MB"],"associativities":[4,8]}'
//	curl -s 'localhost:8080/v1/pareto?format=csv' -d @sweep.json
//	curl -s localhost:8080/metrics
//
// Endpoints:
//
//	POST /v1/solve                    one spec -> the optimized solution (same JSON as `cactid -json`)
//	POST /v1/sweep                    a parameter grid -> one result per point, deterministic order
//	POST /v1/pareto                   a parameter grid -> only the Pareto-optimal points
//	POST /v1/solve-batch              a spec list -> one result per spec under a single admission
//	POST /v1/sweep-jobs               submit a grid as a background job -> 202 + job id (429 while -max-inflight jobs run)
//	GET  /v1/sweep-jobs/{id}          poll a job (state, progress, results when done)
//	GET  /v1/sweep-jobs/{id}/stream   stream per-point results as NDJSON (SSE via Accept)
//	GET  /v1/stats                    engine counters (the coordinator aggregates these cluster-wide)
//	GET  /v1/fabric                   coordinator only: worker health, dispatch/reroute counters, merged cluster stats
//	POST /v1/fabric/register          coordinator only: a worker node joins the fabric ({"url":"..."})
//	GET  /healthz                     liveness probe
//	GET  /metrics                     request counts, cache/store hit ratios, latency histogram
//
// With -coordinator, multi-point requests (/v1/sweep, /v1/pareto,
// /v1/solve-batch, sweep jobs) shard across the -worker-nodes by spec
// fingerprint over each worker's /v1/solve-batch API: every spec has
// one owning worker, chosen by rendezvous hashing, so repeat sweeps
// stay warm; each owner gets its whole share as one batch, a failed
// batch is sharded again over the workers that have not failed it,
// and this node's own engine is the fallback of last resort once a
// point spends its attempt budget — the merged output is
// byte-identical to a single-node sweep, warm repeats included.
// Single solves route to their fingerprint owner too. Workers must
// accept this node's -max-points in one batch.
//
// With -store DIR, solved results and sweep-job checkpoints persist
// in a crash-safe disk store keyed by (model version, spec
// fingerprint): a restarted server answers previously-solved specs
// without re-running the solver, and interrupted sweep jobs resume
// from their last checkpoint.
//
// At most -max-inflight sweep jobs run at once; a submit beyond that
// is answered 429 with a Retry-After hint. A finished job stays in
// memory while the finished jobs held with it total at most
// -max-points results. Polling or streaming an older one reads it back
// from its store record: it answers done at once, its results replayed
// from the result cache or the store and marked cached, and nothing is
// written. Without -store its id answers 404.
//
// Repeated and overlapping requests hit the fingerprint-keyed result
// cache instead of re-running the solver; concurrent identical
// requests are deduplicated in flight, and the cache is bounded by
// -cache-entries with LRU eviction. Requests beyond -max-inflight
// join a bounded queue (-queue-depth, -queue-wait); when the queue is
// full or the wait budget expires they are shed with 429 Too Many
// Requests and a Retry-After hint. SIGINT/SIGTERM flips the server
// into a draining state (healthz and /v1 answer 503) and drains
// in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.timeout, "timeout", 60*time.Second, "per-request time budget")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 32, "max concurrently served /v1 requests, and max running sweep jobs")
	flag.IntVar(&cfg.queueDepth, "queue-depth", 0, "requests queued beyond -max-inflight before 429 (-1 disables the queue, 0 = 2x max-inflight)")
	flag.DurationVar(&cfg.queueWait, "queue-wait", 5*time.Second, "longest a queued request waits for a slot before 429")
	flag.IntVar(&cfg.maxPoints, "max-points", 4096, "most points one sweep grid or spec list may carry, and most results finished sweep jobs keep in memory; request bodies are capped at 1 KiB per point")
	flag.IntVar(&cfg.cacheBound, "cache-entries", 0, "result-cache entry bound with LRU eviction; one entry holds about 1 KB of heap (-1 = unbounded, 0 = default 16384)")
	flag.IntVar(&cfg.workers, "workers", 0, "solver pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof handlers under /debug/pprof/ (loopback clients only)")
	flag.StringVar(&cfg.storeDir, "store", "", "durable result-store directory: solved specs persist across restarts and interrupted sweep jobs resume (empty = in-memory only)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "run as a sweep-fabric coordinator: shard sweeps across -worker-nodes by spec fingerprint, one batch per owning worker, with failure reroute")
	flag.StringVar(&cfg.workerNodes, "worker-nodes", "", "comma-separated worker base URLs for -coordinator (e.g. http://10.0.0.7:8080,10.0.0.8:8080), each run with at least this node's -max-points; workers may also join via POST /v1/fabric/register")
	flag.DurationVar(&cfg.heartbeatEvery, "heartbeat-every", 5*time.Second, "worker health-probe period in coordinator mode (0 disables background probing)")
	flag.Parse()

	s, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("cactid-serve listening on %s", cfg.addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down, draining in-flight requests")
	s.drain() // queued waiters and new arrivals get 503 + Retry-After
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	// Stop job workers at their next checkpoint and flush/close the
	// store: interrupted jobs resume from that checkpoint on restart.
	s.close()
}
