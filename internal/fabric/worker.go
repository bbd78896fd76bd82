package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cactid/internal/core"
	"cactid/internal/explore"
)

// Worker is one solve executor the coordinator can dispatch chunks
// to: a remote cactid-serve node over HTTP in production, or an
// in-process engine in tests and benchmarks. Implementations must be
// safe for concurrent use.
type Worker interface {
	// Name identifies the worker; it is the consistent-hash ring key,
	// so it must be stable across coordinator restarts for the
	// spec→owner mapping (and therefore worker cache warmth) to
	// survive.
	Name() string
	// SolveBatch solves the specs and returns one result per spec, in
	// input order. A returned error means transport-level failure —
	// nothing was delivered and the chunk is safe to reroute; per-spec
	// failures travel inside the results.
	SolveBatch(ctx context.Context, specs []core.Spec) ([]WireResult, error)
	// Healthy is the heartbeat probe.
	Healthy(ctx context.Context) bool
	// Stats returns the worker engine's counters, for cluster-wide
	// aggregation via explore.Stats.Merge.
	Stats(ctx context.Context) (explore.Stats, error)
}

// HTTPWorker drives a remote cactid-serve node through its existing
// API: POST /v1/solve-batch?wire=fabric for chunks, GET /healthz for
// heartbeats, GET /v1/stats for counters.
type HTTPWorker struct {
	// BaseURL is the node's root, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// Client defaults to a client with a 2-minute timeout; dispatch
	// contexts usually bound requests tighter.
	Client *http.Client
}

// NewHTTPWorker normalizes the base URL (scheme added, trailing slash
// trimmed) into a ready worker.
func NewHTTPWorker(baseURL string) *HTTPWorker {
	u := strings.TrimRight(strings.TrimSpace(baseURL), "/")
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return &HTTPWorker{BaseURL: u}
}

func (w *HTTPWorker) Name() string { return w.BaseURL }

func (w *HTTPWorker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return httpWorkerClient
}

// maxIdleConnsPerWorker is how many idle connections the
// coordinator keeps open to each worker node. Every request a
// coordinator serves holds at most one dispatch per worker, and it
// serves up to cactid-serve's default -max-inflight of 32 requests at
// once, so a pool this deep takes back every connection a burst of
// dispatches used. http.DefaultTransport keeps 2 per host
// (http.DefaultMaxIdleConnsPerHost) and closes the rest after each
// use, so the next burst dials again.
const maxIdleConnsPerWorker = 32

// httpWorkerClient is shared across HTTPWorkers so connections are
// pooled per remote node.
var httpWorkerClient = &http.Client{Timeout: 2 * time.Minute, Transport: workerTransport()}

func workerTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxIdleConnsPerWorker
	return t
}

// do sends req and returns the whole body of a 200 reply; any other
// status is an error. The body is read to EOF before it is closed:
// net/http returns a connection to the idle pool only then, and
// otherwise the next dispatch dials afresh.
func (w *HTTPWorker) do(req *http.Request) ([]byte, error) {
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("worker %s: %s: %s", w.BaseURL, resp.Status, bytes.TrimSpace(body[:min(len(body), 512)]))
	}
	return body, nil
}

func (w *HTTPWorker) SolveBatch(ctx context.Context, specs []core.Spec) ([]WireResult, error) {
	body, err := json.Marshal(BatchRequest{Specs: specs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.BaseURL+"/v1/solve-batch?wire=fabric", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	reply, err := w.do(req)
	if err != nil {
		return nil, err
	}
	out, err := DecodeBatchResponse(reply)
	if err != nil {
		return nil, fmt.Errorf("worker %s: decode: %w", w.BaseURL, err)
	}
	return out.Results, nil
}

func (w *HTTPWorker) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.BaseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	_, err = w.do(req)
	return err == nil
}

func (w *HTTPWorker) Stats(ctx context.Context) (explore.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.BaseURL+"/v1/stats", nil)
	if err != nil {
		return explore.Stats{}, err
	}
	body, err := w.do(req)
	if err != nil {
		return explore.Stats{}, err
	}
	var st explore.Stats
	return st, json.Unmarshal(body, &st)
}

// EngineWorker adapts an in-process explore.Engine to the Worker
// interface: the zero-transport worker used by tests, benchmarks, and
// single-binary cluster emulation.
type EngineWorker struct {
	WorkerName string
	Engine     *explore.Engine
	// Fail, when set, simulates transport failure: SolveBatch returns
	// its error without touching the engine (tests flip a worker dead
	// mid-sweep this way).
	Fail func() error
}

func (w *EngineWorker) Name() string { return w.WorkerName }

func (w *EngineWorker) SolveBatch(ctx context.Context, specs []core.Spec) ([]WireResult, error) {
	if w.Fail != nil {
		if err := w.Fail(); err != nil {
			return nil, err
		}
	}
	results := w.Engine.Sweep(ctx, specs)
	out := make([]WireResult, len(results))
	for i, r := range results {
		out[i] = ToWire(r)
	}
	return out, nil
}

func (w *EngineWorker) Healthy(_ context.Context) bool {
	if w.Fail != nil && w.Fail() != nil {
		return false
	}
	return true
}

func (w *EngineWorker) Stats(_ context.Context) (explore.Stats, error) {
	return w.Engine.Stats(), nil
}
