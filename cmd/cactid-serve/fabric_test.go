package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/fabric"
	"cactid/internal/tech"
)

// sweepBody is a 24-point grid request reused across the cluster
// tests; small enough for fast real solves, large enough to shard.
const sweepBody = `{"base":{"ram":"sram","node_nm":32,"block_bytes":64},
	"capacities":["32KB","64KB","128KB"],
	"associativities":[1,2,4,8],
	"modes":["normal","seq"]}`

// clusterServers starts n worker nodes plus a coordinator wired to
// them over loopback HTTP, returning (coordinator, workers).
func clusterServers(t *testing.T, n int, mutate func(*config)) (*server, []*server, string) {
	t.Helper()
	workers := make([]*server, n)
	urls := ""
	for i := range workers {
		workers[i] = mustServer(t, config{})
		ts := newHTTPServer(t, workers[i])
		if urls != "" {
			urls += ","
		}
		urls += ts.URL
	}
	cfg := config{coordinator: true, workerNodes: urls}
	if mutate != nil {
		mutate(&cfg)
	}
	co := mustServer(t, cfg)
	return co, workers, urls
}

func newHTTPServer(t *testing.T, s *server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// TestCoordinatorSweepByteIdenticalOverHTTP drives the full wire
// path: a coordinator sharding a real sweep across two worker nodes
// over HTTP answers /v1/sweep as JSON, then as CSV, twice, and every
// answer must equal a plain single-node server's answer to the same
// request, cached flags included: every spec has one owning worker,
// so the repeats find it in that worker's cache just as the single
// node finds it in its own.
func TestCoordinatorSweepByteIdenticalOverHTTP(t *testing.T) {
	co, workers, _ := clusterServers(t, 2, nil)
	coURL := newHTTPServer(t, co).URL
	single := newTestServer(t, config{})

	for round := 1; round <= 2; round++ {
		for _, format := range []string{"", "?format=csv"} {
			resp, want := post(t, single.URL+"/v1/sweep"+format, sweepBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single-node status %d: %s", resp.StatusCode, want)
			}
			resp, got := post(t, coURL+"/v1/sweep"+format, sweepBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("coordinator status %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("round %d: distributed /v1/sweep%s differs from single-node:\n%s\nvs\n%s",
					round, format, got, want)
			}
		}
	}

	// The work actually ran on the workers, exactly once per point
	// over all four requests, and nothing ran on the coordinator's
	// own engine.
	var clusterSolves int64
	for _, ws := range workers {
		clusterSolves += ws.eng.Stats().Solves
	}
	if clusterSolves != 24 {
		t.Fatalf("cluster solved %d points for 24 specs (exactly-once violated)", clusterSolves)
	}
	if co.eng.Stats().Solves != 0 {
		t.Fatalf("coordinator engine solved %d points; all work should be remote", co.eng.Stats().Solves)
	}
}

// TestCoordinatorSolveRoutesToOwner: single solves go to the spec's
// fingerprint owner, so repeat traffic hits that worker's cache.
func TestCoordinatorSolveRoutesToOwner(t *testing.T) {
	co, workers, _ := clusterServers(t, 2, nil)
	coURL := newHTTPServer(t, co).URL

	req := `{"ram":"sram","capacity":"64KB","associativity":4,"block_bytes":64,"node_nm":32}`
	resp, body := post(t, coURL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cactid-Cached") != "false" {
		t.Fatal("first solve reported cached")
	}
	resp, _ = post(t, coURL+"/v1/solve", req)
	if resp.Header.Get("X-Cactid-Cached") != "true" {
		t.Fatal("repeat solve missed the owner's cache")
	}
	solves := workers[0].eng.Stats().Solves + workers[1].eng.Stats().Solves
	if solves != 1 || co.eng.Stats().Solves != 0 {
		t.Fatalf("owner routing off: worker solves=%d coordinator solves=%d", solves, co.eng.Stats().Solves)
	}
}

// TestCoordinatorSurvivesDeadWorkerNode: one configured worker URL
// points at a dead port. Each of two sweeps sends the dead worker's
// share to the live worker and stays byte-identical to a single node,
// the repeat answered from the live worker's cache; the second
// failure in a row marks the dead worker unhealthy, and /v1/fabric
// records both failures.
func TestCoordinatorSurvivesDeadWorkerNode(t *testing.T) {
	live := mustServer(t, config{})
	liveURL := newHTTPServer(t, live).URL
	// A listener that is closed immediately: connection refused.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()

	co := mustServer(t, config{coordinator: true,
		workerNodes: liveURL + "," + deadURL})
	coURL := newHTTPServer(t, co).URL
	single := newTestServer(t, config{})

	for round := 1; round <= 2; round++ {
		_, want := post(t, single.URL+"/v1/sweep", sweepBody)
		resp, got := post(t, coURL+"/v1/sweep", sweepBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: sweep with a dead worker differs from single-node", round)
		}
	}

	resp, body := get(t, coURL+"/v1/fabric")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/fabric status %d: %s", resp.StatusCode, body)
	}
	var view struct {
		Fabric struct {
			HealthyWorkers   int   `json:"healthy_workers"`
			DispatchFailures int64 `json:"dispatch_failures"`
			DuplicateResults int64 `json:"duplicate_results"`
		} `json:"fabric"`
		ClusterStats struct {
			Solves int64 `json:"solves"`
		} `json:"cluster_stats"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("bad /v1/fabric body: %v\n%s", err, body)
	}
	if view.Fabric.HealthyWorkers != 1 {
		t.Fatalf("healthy_workers = %d, want 1", view.Fabric.HealthyWorkers)
	}
	if view.Fabric.DispatchFailures != 2 {
		t.Fatalf("dead worker produced %d dispatch failures over two sweeps, want 2", view.Fabric.DispatchFailures)
	}
	if view.Fabric.DuplicateResults != 0 {
		t.Fatalf("%d duplicate deliveries", view.Fabric.DuplicateResults)
	}
	if view.ClusterStats.Solves != 24 {
		t.Fatalf("cluster stats report %d solves for 24 specs", view.ClusterStats.Solves)
	}
}

// TestFabricRegisterJoinsWorker: a coordinator started with no
// workers serves sweeps locally until a worker registers, after
// which the work moves to the worker.
func TestFabricRegisterJoinsWorker(t *testing.T) {
	co := mustServer(t, config{coordinator: true})
	coURL := newHTTPServer(t, co).URL
	worker := mustServer(t, config{})
	workerURL := newHTTPServer(t, worker).URL

	// No workers yet: the local fallback serves the sweep.
	resp, body := post(t, coURL+"/v1/sweep", sweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if co.eng.Stats().Solves != 24 {
		t.Fatalf("local fallback solved %d/24 points", co.eng.Stats().Solves)
	}

	resp, body = post(t, coURL+"/v1/fabric/register", fmt.Sprintf(`{"url":%q}`, workerURL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d: %s", resp.StatusCode, body)
	}
	var reg struct {
		Registered bool `json:"registered"`
		Workers    int  `json:"workers"`
	}
	if err := json.Unmarshal(body, &reg); err != nil || !reg.Registered || reg.Workers != 1 {
		t.Fatalf("register reply %s (err %v)", body, err)
	}

	// A fresh grid (different block size -> new fingerprints) now
	// runs on the worker.
	fresh := `{"base":{"ram":"sram","node_nm":32,"block_bytes":32},
		"capacities":["32KB","64KB"],"associativities":[1,2]}`
	if resp, body := post(t, coURL+"/v1/sweep", fresh); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := worker.eng.Stats().Solves; got != 4 {
		t.Fatalf("registered worker solved %d/4 points", got)
	}

	// /v1/solve-batch?wire=fabric on a non-coordinator worker is the
	// dispatch surface; /v1/fabric must stay coordinator-only.
	if resp, _ := get(t, workerURL+"/v1/fabric"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/fabric on a worker answered %d, want 404", resp.StatusCode)
	}
}

// TestMetricsFabricBlock: coordinator /metrics carries the fabric
// block; worker /metrics does not.
func TestMetricsFabricBlock(t *testing.T) {
	co, _, _ := clusterServers(t, 1, nil)
	coURL := newHTTPServer(t, co).URL
	post(t, coURL+"/v1/sweep", sweepBody)
	_, body := get(t, coURL+"/metrics")
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["fabric"]; !ok {
		t.Fatal("coordinator /metrics lacks the fabric block")
	}

	worker := newTestServer(t, config{})
	_, body = get(t, worker.URL+"/metrics")
	m = nil
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["fabric"]; ok {
		t.Fatal("worker /metrics unexpectedly carries a fabric block")
	}
}

// TestStatsEndpoint: every node serves its engine counters on
// /v1/stats for cluster aggregation, under the keys a coordinator of
// any version reads. A renamed key would read as zero there.
func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t, config{})
	post(t, ts.URL+"/v1/solve", `{"ram":"sram","capacity":"64KB","associativity":4,"block_bytes":64,"node_nm":32}`)
	_, body := get(t, ts.URL+"/v1/stats")
	var st map[string]json.Number
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st["solves"] != "1" {
		t.Fatalf("/v1/stats solves = %s, want 1", st["solves"])
	}
	want := []string{"cache_entries", "cache_evictions", "cache_forced_misses", "cache_hits", "cache_max_entries",
		"orgs_built", "orgs_considered", "orgs_pruned", "orgs_pruned_bound", "panics", "solves", "tier1_hits", "tier1_misses"}
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("/v1/stats keys %v, want %v", keys, want)
	}
}

// TestFabricReplyNaNAnswers500: a worker reply JSON cannot carry (a
// NaN metric) answers 500 with the encoder's error. Writing the 200
// header before encoding used to send the error object as a 200
// reply.
func TestFabricReplyNaNAnswers500(t *testing.T) {
	nan := func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		return &core.Solution{Spec: spec, AccessTime: math.NaN(),
			Data: &array.Bank{Org: array.Org{Rows: 1, Cols: 1, Mux: 1,
				MatsPerSubbank: 1, Subbanks: 1, Mats: 1}, PipelineStages: 1}}, nil
	}
	ts := newTestServer(t, config{solver: nan})
	body, err := json.Marshal(fabric.BatchRequest{Specs: []core.Spec{{Node: tech.Node32,
		RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 64, Associativity: 4, IsCache: true}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/v1/solve-batch?wire=fabric", string(body))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, out)
	}
	var e map[string]string
	if err := json.Unmarshal(out, &e); err != nil || !strings.Contains(e["error"], "NaN") {
		t.Fatalf("error body %q does not name the NaN", out)
	}
}
