package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/fabric"
)

// newFabric builds the sweep coordinator from the -worker-nodes list.
// The local engine is the fallback of last resort, so a coordinator
// with no reachable workers degrades to a plain single-node server.
func newFabric(cfg config, eng *explore.Engine) *fabric.Coordinator {
	var workers []fabric.Worker
	for _, u := range strings.Split(cfg.workerNodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, fabric.NewHTTPWorker(u))
		}
	}
	return fabric.New(fabric.Config{
		Workers:   workers,
		Heartbeat: cfg.heartbeatEvery,
		Chaos:     cfg.chaos,
		Local:     eng.Sweep,
	})
}

// handleSolveBatchFabric is the ?wire=fabric dispatch path: native
// core.Spec values in, transportable wire results out. Always served
// by the local engine — never re-distributed — so a mis-wired
// coordinator-to-coordinator loop cannot amplify. Context cutoffs are
// reported per point (error kind "canceled"/"deadline") rather than
// failing the batch: the coordinator re-dispatches exactly the points
// that were cut off.
func (s *server) handleSolveBatchFabric(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return bodyError(err)
	}
	req, err := fabric.DecodeBatchRequest(body)
	if err != nil {
		return bodyError(err)
	}
	if err := s.checkBatch(len(req.Specs)); err != nil {
		return err
	}
	results := s.eng.Sweep(r.Context(), req.Specs)
	out := fabric.BatchResponse{Results: make([]fabric.WireResult, len(results))}
	for i, res := range results {
		out.Results[i] = fabric.ToWire(res)
	}
	// The reply is compact: the coordinator's decoder takes any
	// layout. It is marshaled before the header goes out, so a metric
	// JSON cannot carry (NaN, ±Inf) answers 500 with the error rather
	// than a 200.
	if body, err = json.Marshal(out); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	return nil
}

// handleStats serves the engine's counters for cluster aggregation
// (explore.Stats marshals directly; coordinators merge worker
// snapshots via Stats.Merge).
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epStats].Add(1)
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

// handleFabric is the coordinator's cluster view: per-worker health
// and dispatch counters, plus the merged cluster-wide engine stats
// (workers' counters plus this node's own engine).
func (s *server) handleFabric(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epFabric].Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"fabric":        s.fab.Status(),
		"cluster_stats": s.fab.ClusterStats(r.Context()).Merge(s.eng.Stats()),
	})
}

// registerRequest is the /v1/fabric/register body.
type registerRequest struct {
	URL string `json:"url"`
}

// handleFabricRegister lets a worker node join (or rejoin) the
// fabric; subsequent sweeps give it the specs it owns. Re-registering
// a known worker marks it healthy again.
func (s *server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epFabricRegister].Add(1)
	if s.draining.Load() {
		s.metrics.rejectedDrain.Add(1)
		s.writeError(w, errDraining)
		return
	}
	req, err := decode[registerRequest](r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if strings.TrimSpace(req.URL) == "" {
		s.writeError(w, badRequest(errors.New("url is empty")))
		return
	}
	worker := fabric.NewHTTPWorker(req.URL)
	fresh := s.fab.Register(worker)
	writeJSON(w, http.StatusOK, map[string]any{
		"registered": fresh,
		"worker":     worker.Name(),
		"workers":    len(s.fab.Status().Workers),
	})
}

// proxySolveToOwner routes a single solve to the worker owning the
// spec's fingerprint — the same placement sweeps use, so interactive
// solves and sweeps share one cache/store owner per spec and repeat
// traffic stays warm. Reports handled=false (and no response written)
// when the point should be solved locally instead: no healthy remote
// owner, an unfingerprint-able spec, or a transport failure, which
// the coordinator counts against the owner.
func (s *server) proxySolveToOwner(w http.ResponseWriter, r *http.Request, spec core.Spec) (handled bool, err error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return false, nil // invalid spec: the local path reports it
	}
	wr, ok := s.fab.SolveOnOwner(r.Context(), fp, spec)
	if !ok {
		return false, nil
	}
	res := fabric.FromWire(wr)
	if res.Err != nil {
		// Wire errors keep their errors.Is identity, so the local
		// path's classification applies.
		return true, solveError(res.Err)
	}
	return true, writeSolution(w, res.Solution, res.Cached)
}
