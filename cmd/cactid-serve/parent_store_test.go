package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/store"
)

// parentStoreSolves are the /v1/solve bodies testdata/store-v2 was
// written with: every technology provider, caches and plain
// memories, DRAM points with nonzero refresh, a point capped at six
// pipeline stages, and a spec with no solution.
var parentStoreSolves = []string{
	`{"ram":"sram","capacity":"64KB","associativity":4,"node_nm":32}`,
	`{"tech":"itrs-sram","capacity":"256KB","associativity":8,"node_nm":45,"banks":2}`,
	`{"tech":"itrs-lpdram","capacity":"4MB","associativity":8,"node_nm":32,"mode":"sequential"}`,
	`{"tech":"itrs-commdram","capacity":"8MB","cache":false,"node_nm":65}`,
	`{"tech":"stt-ram","capacity":"1MB","associativity":8,"node_nm":32}`,
	`{"tech":"pcm","capacity":"4MB","cache":false,"node_nm":45}`,
	`{"tech":"gain-cell","capacity":"512KB","associativity":4,"node_nm":32,"mode":"fast"}`,
	`{"ram":"lp-dram","capacity":"16MB","associativity":16,"mode":"sequential","node_nm":32,"max_pipeline_stages":6}`,
	`{"ram":"comm-dram","capacity":"1MB","page_bits":7,"cache":false}`,
}

// TestWarmRestartParentStore serves testdata/store-v2, a store
// directory the code wrote before core.Projection replaced the store
// record's own metric fields, at ModelVersion 2. It was made with a
// real-solver server on an empty directory: parentStoreSolves posted
// to /v1/solve, then a 4-point sweep job run to completion, then a
// second server with checkpointEvery 4, one worker and a solver that
// parked its sixth call, which took a 16-point job setting every
// SweepRequest axis and was closed while the solver parked. That job's
// record says running at cursor 6.
//
// Served by today's code with a counting real solver, the running
// job finishes with exactly the points the fixture lacked solved, and
// its results render as a fresh sweep of its grid does. Every stored
// outcome answers /v1/solve from the store with the body a fresh
// solve gives, the finished job replays without a solve, and saving
// each outcome again writes the fixture's bytes.
func TestWarmRestartParentStore(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	dir := warmStoreDir(t)
	copyDir(t, "testdata/store-v2", dir)
	fixture, running, finished := readParentStore(t, dir)

	// Every spec the fixture may hold, by fingerprint, as a /v1/solve
	// body.
	bodies := map[string]string{}
	for _, body := range parentStoreSolves {
		var req explore.SpecRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		bodies[mustFingerprint(t, req)] = body
	}
	runSpecs, finishedSpecs := gridSpecs(t, running), gridSpecs(t, finished)
	for _, spec := range append(append([]core.Spec(nil), runSpecs...), finishedSpecs...) {
		req := specRequestOf(spec)
		fp := mustFingerprint(t, req)
		if want, _ := spec.Fingerprint(); fp != want {
			t.Fatalf("%+v: its request fingerprints to %s, want %s", spec, fp, want)
		}
		body, _ := json.Marshal(req)
		bodies[fp] = string(body)
	}
	for fp := range fixture {
		if bodies[fp] == "" {
			t.Fatalf("the fixture stores %s, which no known spec fingerprints to", fp)
		}
	}

	var mu sync.Mutex
	solved := map[string]int{}
	solver := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		fp, _ := spec.Fingerprint()
		mu.Lock()
		solved[fp]++
		mu.Unlock()
		return core.OptimizeContext(ctx, spec, nil)
	}
	solves := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range solved {
			n += c
		}
		return n
	}
	ts := newTestServer(t, config{solver: solver, storeDir: dir})
	fresh := newTestServer(t, config{})

	// The running job resumes at start and solves each point the
	// fixture had not stored, once.
	checkJobResults(t, ts.URL, running, runSpecs, fixture)
	missing := map[string]int{}
	for _, spec := range runSpecs {
		if fp, _ := spec.Fingerprint(); fixture[fp] == nil {
			missing[fp] = 1
		}
	}
	mu.Lock()
	if !reflect.DeepEqual(solved, missing) {
		t.Errorf("the resumed job solved %d points, want the %d the fixture lacked, once each", len(solved), len(missing))
	}
	mu.Unlock()
	afterResume := solves()

	// Every stored outcome answers /v1/solve from the store, with the
	// status and body of a fresh solve.
	for fp, val := range fixture {
		resp, got := post(t, ts.URL+"/v1/solve", bodies[fp])
		wantResp, want := post(t, fresh.URL+"/v1/solve", bodies[fp])
		if resp.StatusCode != wantResp.StatusCode || !bytes.Equal(got, want) {
			t.Errorf("%s: stored answer %d %s, fresh solve %d %s", bodies[fp], resp.StatusCode, got, wantResp.StatusCode, want)
		}
		var rec struct {
			NoSolution bool   `json:"no_solution"`
			ErrText    string `json:"error"`
		}
		if err := json.Unmarshal(val, &rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.NoSolution && (resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(got, []byte(rec.ErrText))):
			t.Errorf("%s: stored verdict %q answered %d %s, want 422 with its text", bodies[fp], rec.ErrText, resp.StatusCode, got)
		case !rec.NoSolution && resp.Header.Get("X-Cactid-Cached") != "true":
			t.Errorf("%s: stored solution not served as cached", bodies[fp])
		}
	}
	// A GET of the finished job replays it out of the store.
	checkJobResults(t, ts.URL, finished, finishedSpecs, fixture)
	if n := solves(); n != afterResume {
		t.Errorf("stored outcomes and the finished job ran the solver %d times, want 0", n-afterResume)
	}

	// Saving each outcome again writes the fixture's bytes.
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := explore.New(explore.Options{Tier1: store.NewSolutions(st)})
	for fp, want := range fixture {
		var req explore.SpecRequest
		if err := json.Unmarshal([]byte(bodies[fp]), &req); err != nil {
			t.Fatal(err)
		}
		spec, _ := req.Spec()
		eng.Solve(context.Background(), spec)
		got, _, err := st.Get(context.Background(), parentSolutionKey(fp))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: saved again as\n%s\nthe fixture holds\n%s", bodies[fp], got, want)
		}
	}
}

func parentSolutionKey(fp string) string { return fmt.Sprintf("s:%d:%s", core.ModelVersion, fp) }

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readParentStore returns the fixture's solution records by
// fingerprint and its running and finished job records.
func readParentStore(t *testing.T, dir string) (fixture map[string][]byte, running, finished jobRecord) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fixture = map[string][]byte{}
	for _, key := range st.Keys("") {
		val, _, err := st.Get(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if fp, ok := strings.CutPrefix(key, parentSolutionKey("")); ok {
			fixture[fp] = val
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(val, &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.State {
		case jobRunning:
			running = rec
		case jobDone:
			finished = rec
		}
	}
	if running.ID == "" || finished.ID == "" || running.Cursor == 0 || running.Cursor == running.Points {
		t.Fatalf("the fixture lacks a finished job or a job stopped mid-grid: %+v, %+v", running, finished)
	}
	// The running job's grid names every axis, so a request that
	// decoded with one missing would show here.
	v := reflect.ValueOf(running.Request)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("the running job's grid leaves %s unset", v.Type().Field(i).Name)
		}
	}
	return fixture, running, finished
}

// gridSpecs expands a job's grid as the job does.
func gridSpecs(t *testing.T, rec jobRecord) []core.Spec {
	t.Helper()
	g, err := rec.Request.Grid()
	if err != nil {
		t.Fatal(err)
	}
	specs, skipped := g.Expand()
	if len(specs) != rec.Points || skipped != rec.Skipped {
		t.Fatalf("job %s expands to %d points (%d skipped), recorded %d (%d skipped)", rec.ID, len(specs), skipped, rec.Points, rec.Skipped)
	}
	return specs
}

// checkJobResults polls a job to done and compares its results with a
// fresh sweep of its grid, which is cached exactly where the fixture
// stored the point.
func checkJobResults(t *testing.T, base string, rec jobRecord, specs []core.Spec, fixture map[string][]byte) {
	t.Helper()
	url := base + "/v1/sweep-jobs/" + rec.ID
	pollJob(t, url, func(m map[string]any) bool { return m["state"] != jobRunning })
	_, body := get(t, url)
	var got struct {
		State   string          `json:"state"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &got); err != nil || got.State != jobDone {
		t.Fatalf("job %s: %v\n%s", rec.ID, err, body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got.Results); err != nil {
		t.Fatal(err)
	}
	results := explore.New(explore.Options{}).Sweep(context.Background(), specs)
	for i := range results {
		results[i].Cached = fixture[results[i].Fingerprint] != nil
	}
	want, err := explore.AppendResultsJSON(nil, results, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), want) {
		t.Errorf("job %s results differ from a fresh sweep of its grid:\n%s\nwant\n%s", rec.ID, compact.Bytes(), want)
	}
}

// specRequestOf writes a grid point as a /v1/solve body. A grid
// point never sets TagRAM, the one field the request cannot name.
func specRequestOf(s core.Spec) explore.SpecRequest {
	return explore.SpecRequest{
		RAM: strings.ToLower(s.RAM.String()), Technology: s.Technology, NodeNM: int(s.Node),
		Capacity: strconv.FormatInt(s.CapacityBytes, 10), BlockBytes: s.BlockBytes,
		Associativity: s.Associativity, Banks: s.Banks, Cache: &s.IsCache, Mode: s.Mode.String(),
		PageBits: s.PageBits, MaxPipelineStages: s.MaxPipelineStages,
		MaxAreaConstraint: s.MaxAreaConstraint, MaxAcctimeConstraint: s.MaxAcctimeConstraint,
		MaxRepeaterSlack: s.MaxRepeaterSlack, SleepTransistors: s.SleepTransistors, ECC: s.ECC,
		Ports: s.Ports, IncludeBankRouting: s.IncludeBankRouting,
		PhysicalAddressBits: s.PhysicalAddressBits, Weights: s.Weights,
	}
}

func mustFingerprint(t *testing.T, req explore.SpecRequest) string {
	t.Helper()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}
