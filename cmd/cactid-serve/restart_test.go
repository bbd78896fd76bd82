package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/store"
)

// warmStoreDir returns the store directory for the warm-restart
// tests: a per-test tempdir normally, or $CACTID_WARMRESTART_DIR when
// CI sets it so a failure leaves the store behind as an artifact.
func warmStoreDir(t *testing.T) string {
	if dir := os.Getenv("CACTID_WARMRESTART_DIR"); dir != "" {
		sub := fmt.Sprintf("%s/%s", dir, strings.ReplaceAll(t.Name(), "/", "_"))
		// Start from an empty store even if a previous run left one
		// behind — stale warm state would fake out the solver-count
		// assertions. A failing run's store survives: removal happens
		// at the start of the next run, not at the end of this one.
		if err := os.RemoveAll(sub); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

// persistableSolver is a counting fake whose solutions carry the full
// surface the durable tier persists.
func persistableSolver() (*atomic.Int64, func(context.Context, core.Spec) (*core.Solution, error)) {
	var n atomic.Int64
	return &n, func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		n.Add(1)
		return &core.Solution{
			Spec:       spec,
			Data:       &array.Bank{Org: array.Org{Rows: 64, Cols: 128, Mux: 4, Mats: 2, Subbanks: 1, MatsPerSubbank: 2}, PipelineStages: 2},
			AccessTime: float64(spec.CapacityBytes),
		}, nil
	}
}

const warmSweep = `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB"],"banks":[1,2]}`

// TestWarmRestartSweepByteIdenticalZeroSolves is the warm-restart
// contract end to end over HTTP: a second server process on the same
// store directory answers a previously-run sweep byte-identically and
// never invokes the solver.
func TestWarmRestartSweepByteIdenticalZeroSolves(t *testing.T) {
	dir := warmStoreDir(t)

	n1, solver1 := persistableSolver()
	tsA := newTestServer(t, config{solver: solver1, storeDir: dir})
	post(t, tsA.URL+"/v1/sweep", warmSweep) // cold: populates the store
	respA, warmBody := post(t, tsA.URL+"/v1/sweep", warmSweep)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep: %d", respA.StatusCode)
	}
	coldSolves := n1.Load()
	if coldSolves == 0 {
		t.Fatal("test setup: cold sweep never hit the solver")
	}
	tsA.Close() // the stop: mustServer's cleanup closes the store later via LIFO

	// "Second process": a fresh server (cold tier 0, new solver
	// counter) over the same directory. Its sweep must be served
	// entirely from disk — byte-identical to the first process's warm
	// response, zero solver invocations.
	n2, solver2 := persistableSolver()
	sB := mustServer(t, config{solver: solver2, storeDir: dir})
	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	respB, restartBody := post(t, tsB.URL+"/v1/sweep", warmSweep)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("restart sweep: %d", respB.StatusCode)
	}
	if !bytes.Equal(warmBody, restartBody) {
		t.Fatalf("restart sweep not byte-identical:\n%s\nvs\n%s", warmBody, restartBody)
	}
	if n2.Load() != 0 {
		t.Fatalf("restarted server invoked the solver %d times, want 0", n2.Load())
	}

	// /v1/solve on a restarted server reports the hit explicitly.
	resp, _ := post(t, tsB.URL+"/v1/solve", `{"ram":"sram","capacity":"32KB","cache":false,"banks":1}`)
	if resp.Header.Get("X-Cactid-Cached") != "true" {
		t.Fatalf("X-Cactid-Cached = %q, want true", resp.Header.Get("X-Cactid-Cached"))
	}
	if n2.Load() != 0 {
		t.Fatal("solve after restart ran the solver")
	}

	var m struct {
		Store map[string]int64 `json:"store"`
	}
	_, body := get(t, tsB.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Store["tier1_hits"] == 0 || m.Store["corrupt_reads"] != 0 {
		t.Fatalf("restart store metrics: %+v", m.Store)
	}
}

// TestWarmRestartRealSolver repeats the warm-restart byte-identity
// check with the real optimizer, proving the store's solution codec
// loses nothing the exporters render.
func TestWarmRestartRealSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	dir := warmStoreDir(t)
	sweep := `{"base":{"ram":"sram","max_pipeline_stages":6},"capacities":["32KB","64KB"],"associativities":[1,4]}`

	tsA := newTestServer(t, config{storeDir: dir})
	post(t, tsA.URL+"/v1/sweep", sweep)
	_, warmBody := post(t, tsA.URL+"/v1/sweep", sweep)
	_, warmCSV := post(t, tsA.URL+"/v1/sweep?format=csv", sweep)
	tsA.Close()

	tsB := newTestServer(t, config{storeDir: dir})
	_, restartBody := post(t, tsB.URL+"/v1/sweep", sweep)
	_, restartCSV := post(t, tsB.URL+"/v1/sweep?format=csv", sweep)
	if !bytes.Equal(warmBody, restartBody) {
		t.Fatalf("real-solver restart sweep not byte-identical:\n%s\nvs\n%s", warmBody, restartBody)
	}
	if !bytes.Equal(warmCSV, restartCSV) {
		t.Fatal("real-solver restart CSV not byte-identical")
	}
}

// pollJob polls the job endpoint until cond holds or the deadline
// passes, returning the last decoded body.
func pollJob(t *testing.T, url string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, url)
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("job poll: %v in %s", err, body)
		}
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("job poll timed out; last state:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func jobCompleted(m map[string]any) float64 { f, _ := m["completed"].(float64); return f }

// TestSweepJobKillResume submits a job, kills the server after the
// 4th of 8 points checkpointed, and asserts the restarted server
// finishes the job with exactly 4 solver calls: the completed prefix
// replays from the durable tier instead of restarting from point 0.
func TestSweepJobKillResume(t *testing.T) {
	dir := warmStoreDir(t)
	const jobGrid = `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB","256KB"],"banks":[1,2]}`

	// First process: solves 1-4 pass, 5+ park until cancellation (the
	// kill arrives while point 5 is "in the solver").
	var n1 atomic.Int64
	solver1 := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		if n1.Add(1) > 4 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &core.Solution{Spec: spec,
			Data: &array.Bank{Org: array.Org{Rows: 64, Cols: 128, Mux: 4, Mats: 1, Subbanks: 1, MatsPerSubbank: 1}, PipelineStages: 1},
		}, nil
	}
	sA, err := newServer(config{solver: solver1, storeDir: dir, checkpointEvery: 2, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA)
	resp, body := post(t, tsA.URL+"/v1/sweep-jobs", jobGrid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub map[string]any
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	id, _ := sub["id"].(string)
	if id == "" || sub["points"].(float64) != 8 {
		t.Fatalf("submit response: %s", body)
	}
	jobURL := tsA.URL + "/v1/sweep-jobs/" + id
	pollJob(t, jobURL, func(m map[string]any) bool { return jobCompleted(m) >= 4 })

	// Kill: drain the workers (the parked solve is cancelled, its
	// chunk discarded) and close the store — progress = checkpoint.
	tsA.Close()
	sA.close()

	// Second process on the same directory resumes the job on start.
	n2, solver2 := persistableSolver()
	sB := mustServer(t, config{solver: solver2, storeDir: dir, checkpointEvery: 2, workers: 1})
	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	final := pollJob(t, tsB.URL+"/v1/sweep-jobs/"+id, func(m map[string]any) bool {
		return m["state"] == jobDone
	})
	if got := n2.Load(); got != 4 {
		t.Fatalf("resume ran the solver %d times, want 4 (points 1-4 must come from the store)", got)
	}
	if rf, _ := final["resumed_from"].(float64); rf != 4 {
		t.Fatalf("resumed_from = %v, want 4", final["resumed_from"])
	}
	results, _ := final["results"].([]any)
	if len(results) != 8 {
		t.Fatalf("resumed job returned %d results, want 8", len(results))
	}
	for i, r := range results {
		rm := r.(map[string]any)
		if idx, _ := rm["index"].(float64); int(idx) != i {
			t.Fatalf("result %d has index %v: grid order lost across resume", i, rm["index"])
		}
		if rm["error"] != nil {
			t.Fatalf("result %d carries an error after resume: %v", i, rm["error"])
		}
	}

	var m struct {
		SweepJobs jobStats `json:"sweep_jobs"`
	}
	_, metricsBody := get(t, tsB.URL+"/metrics")
	if err := json.Unmarshal(metricsBody, &m); err != nil {
		t.Fatal(err)
	}
	if m.SweepJobs.Resumed != 1 || m.SweepJobs.Completed != 1 {
		t.Fatalf("sweep_jobs metrics = %+v, want resumed=1 completed=1", m.SweepJobs)
	}
}

// TestSweepJobResumeHonorsInFlightBound: a restart over a store that
// holds more interrupted jobs than -max-inflight revives them all at
// once, so polls find every one, but runs only -max-inflight of them;
// the rest queue, and a submit answers 429 while they wait. Each
// finished job starts a queued one. /metrics sweep_jobs.active never
// exceeds the bound, every job ends done, and each job's stream
// carries the bytes of a fresh sweep of its grid.
func TestSweepJobResumeHonorsInFlightBound(t *testing.T) {
	const maxInFlight = 2
	dir := warmStoreDir(t)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	grids := map[string][]core.Spec{}
	for k := 0; k < maxInFlight+2; k++ {
		var req explore.SweepRequest
		body := fmt.Sprintf(`{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["%dKB","%dKB"],"banks":[1,2]}`,
			32<<(2*k), 32<<(2*k+1))
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		g, err := req.Grid()
		if err != nil {
			t.Fatal(err)
		}
		specs, skipped := g.Expand()
		rec := jobRecord{ID: fmt.Sprintf("%016x", k+1), Request: req, ModelVersion: core.ModelVersion,
			Points: len(specs), Skipped: skipped, State: jobRunning}
		val, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(context.Background(), jobKeyPrefix+rec.ID, val); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
		grids[rec.ID] = specs
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	_, fast := persistableSolver()
	solver := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fast(ctx, spec)
	}
	ts := newTestServer(t, config{solver: solver, storeDir: dir, maxInFlight: maxInFlight})
	if got := sweepJobStats(t, ts.URL); got.Active != maxInFlight || got.Resumed != maxInFlight+2 {
		t.Fatalf("sweep_jobs after restart with %d interrupted jobs: %+v, want active %d, resumed %d",
			maxInFlight+2, got, maxInFlight, maxInFlight+2)
	}
	for _, id := range ids {
		if m := pollJob(t, ts.URL+"/v1/sweep-jobs/"+id, func(map[string]any) bool { return true }); m["state"] != jobRunning {
			t.Fatalf("job %s while the solver is parked: %v, want running", id, m)
		}
	}
	if resp, body := post(t, ts.URL+"/v1/sweep-jobs", capacityGrid(32)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit while revived jobs wait: %d %s, want 429", resp.StatusCode, body)
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := sweepJobStats(t, ts.URL)
		if got.Active > maxInFlight {
			t.Fatalf("sweep_jobs.active = %d, bound %d", got.Active, maxInFlight)
		}
		if got.Completed == maxInFlight+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived jobs did not finish: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}

	_, fresh := persistableSolver()
	for _, id := range ids {
		var want []byte
		for _, r := range explore.New(explore.Options{Solver: fresh}).Sweep(context.Background(), grids[id]) {
			line, err := explore.AppendResultJSON(want, r, "", "")
			if err != nil {
				t.Fatal(err)
			}
			want = append(line, '\n')
		}
		_, stream := get(t, ts.URL+"/v1/sweep-jobs/"+id+"/stream")
		end := bytes.LastIndexByte(stream[:len(stream)-1], '\n') + 1
		if !bytes.Equal(stream[:end], want) {
			t.Fatalf("job %s streams\n%s\nwant a fresh sweep's\n%s", id, stream[:end], want)
		}
		var last map[string]any
		if err := json.Unmarshal(stream[end:], &last); err != nil || last["state"] != jobDone {
			t.Fatalf("job %s stream ends with %s (%v), want state done", id, stream[end:], err)
		}
	}
}

// TestSweepJobResumeRefusesRegrid: a checkpoint whose request no
// longer expands to the point count it recorded (here the banks axis
// it was submitted with is gone, as when a renamed JSON tag decodes an
// old record with that axis empty) fails on resume, naming both
// counts, before any point is solved. Sweeping the shrunken grid
// would finish "done" with fewer results than the job's points.
func TestSweepJobResumeRefusesRegrid(t *testing.T) {
	dir := warmStoreDir(t)
	const id = "0123456789abcdef"
	val, err := json.Marshal(jobRecord{
		ID: id, ModelVersion: core.ModelVersion, State: jobRunning,
		Request: explore.SweepRequest{Base: explore.SpecRequest{RAM: "sram", BlockBytes: 64},
			Capacities: []string{"32KB", "64KB", "128KB"}},
		Points: 6, Cursor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(context.Background(), jobKeyPrefix+id, val); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	n, solver := persistableSolver()
	ts := newTestServer(t, config{solver: solver, storeDir: dir})
	final := pollJob(t, ts.URL+"/v1/sweep-jobs/"+id, func(m map[string]any) bool {
		return m["state"] != jobRunning
	})
	if final["state"] != jobFailed {
		t.Fatalf("resumed job with a shrunken grid ended %v, want %s: %v", final["state"], jobFailed, final)
	}
	if msg, _ := final["error"].(string); !strings.Contains(msg, "3 points") || !strings.Contains(msg, "recorded 6") {
		t.Fatalf("error %q does not name both point counts", msg)
	}
	if got := n.Load(); got != 0 {
		t.Fatalf("refused resume ran the solver %d times, want 0", got)
	}
}

// TestSweepJobStream covers both stream encodings: NDJSON replays
// every per-point result then ends after the terminal line; the SSE
// variant is negotiated via Accept.
func TestSweepJobStream(t *testing.T) {
	_, solver := persistableSolver()
	ts := newTestServer(t, config{solver: solver, storeDir: t.TempDir(), checkpointEvery: 2})
	resp, body := post(t, ts.URL+"/v1/sweep-jobs",
		`{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub map[string]any
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	streamURL := ts.URL + "/v1/sweep-jobs/" + sub["id"].(string) + "/stream"

	sresp, err := http.Get(streamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var points, terminal int
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, isResult := line["fingerprint"]; isResult {
			points++
		} else if line["state"] == jobDone {
			terminal++
		}
	}
	if points != 3 || terminal != 1 {
		t.Fatalf("stream carried %d points, %d terminal lines; want 3, 1", points, terminal)
	}

	// SSE negotiation: same data framed as events.
	req, _ := http.NewRequest("GET", streamURL, nil)
	req.Header.Set("Accept", "text/event-stream")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(eresp.Body)
	sse := buf.String()
	if strings.Count(sse, "event: result\n") != 3 || strings.Count(sse, "event: done\n") != 1 {
		t.Fatalf("SSE stream malformed:\n%s", sse)
	}

	// Unknown job ids are a clean 404 on both endpoints.
	if r404, _ := get(t, ts.URL+"/v1/sweep-jobs/deadbeef00000000"); r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", r404.StatusCode)
	}
}

// TestSolveBatch exercises /v1/solve-batch: one admission, per-spec
// results in input order, and spec errors surfaced per point.
func TestSolveBatch(t *testing.T) {
	n, solver := persistableSolver()
	// One worker makes the duplicate-spec dedup order deterministic:
	// the third spec always finds the first one's cache entry.
	ts := newTestServer(t, config{solver: solver, workers: 1})
	resp, body := post(t, ts.URL+"/v1/solve-batch",
		`{"specs":[{"ram":"sram","capacity":"32KB","cache":false},
		           {"ram":"sram","capacity":"64KB","cache":false},
		           {"ram":"sram","capacity":"32KB","cache":false}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var env struct {
		Points  int              `json:"points"`
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Points != 3 || len(env.Results) != 3 {
		t.Fatalf("batch envelope: %s", body)
	}
	if n.Load() != 2 {
		t.Fatalf("batch ran %d solves, want 2 (duplicate spec deduplicated)", n.Load())
	}
	if cached, _ := env.Results[2]["cached"].(bool); !cached {
		t.Fatal("duplicate spec in batch not served from cache")
	}

	// A malformed spec fails the whole batch up front with 400.
	resp, _ = post(t, ts.URL+"/v1/solve-batch", `{"specs":[{"ram":"warp-core"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/solve-batch", `{"specs":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
}
