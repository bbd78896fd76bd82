package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/explore"
)

// mustServer builds a server, failing the test on store errors, and
// releases its background resources (job workers, store) on cleanup.
func mustServer(t testing.TB, cfg config) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

func newTestServer(t *testing.T, cfg config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mustServer(t, cfg))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSolveMatchesCLIJSON(t *testing.T) {
	ts := newTestServer(t, config{})
	req := `{"ram":"sram","capacity":"64KB","associativity":4,"block_bytes":64,"node_nm":32}`
	resp, body := post(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// The reference: what `cactid -json` prints for the same spec.
	spec, err := explore.SpecRequest{RAM: "sram", Capacity: "64KB", Associativity: 4,
		BlockBytes: 64, NodeNM: 32}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Optimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(explore.SolutionJSON(sol), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("solve body differs from cactid -json:\ngot:\n%s\nwant:\n%s", body, want)
	}
	if resp.Header.Get("X-Cactid-Cached") != "false" {
		t.Error("first solve should not be cached")
	}

	// Second identical request is served from the cache, same bytes.
	resp2, body2 := post(t, ts.URL+"/v1/solve", req)
	if resp2.Header.Get("X-Cactid-Cached") != "true" {
		t.Error("second solve should be cached")
	}
	if !bytes.Equal(body2, want) {
		t.Error("cached solve body differs")
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(t, config{})
	req := `{"base":{"ram":"sram","node_nm":32,"block_bytes":64,"associativity":2},
	         "capacities":["32KB","64KB","128KB"]}`
	resp, body := post(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Points  int              `json:"points"`
		Skipped int              `json:"skipped"`
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Points != 3 || env.Skipped != 0 || len(env.Results) != 3 {
		t.Fatalf("envelope %d/%d/%d, want 3/0/3", env.Points, env.Skipped, len(env.Results))
	}
	// Each point carries the same fields as /v1/solve.
	for _, r := range env.Results {
		for _, key := range []string{"access_time_s", "read_energy_j", "leakage_w",
			"area_m2", "fingerprint", "index", "cached"} {
			if _, ok := r[key]; !ok {
				t.Fatalf("result missing %q: %v", key, r)
			}
		}
	}
	if env.Results[0]["capacity_bytes"].(float64) != 32<<10 {
		t.Error("sweep order not deterministic: first point should be 32KB")
	}

	// CSV rendering of the same sweep.
	respCSV, csvBody := post(t, ts.URL+"/v1/sweep?format=csv", req)
	if respCSV.StatusCode != http.StatusOK || !strings.HasPrefix(string(csvBody), "index,fingerprint,ram,") {
		t.Fatalf("csv sweep failed: %d %s", respCSV.StatusCode, csvBody[:min(80, len(csvBody))])
	}
	if got := strings.Count(strings.TrimSpace(string(csvBody)), "\n"); got != 3 {
		t.Fatalf("csv has %d data rows, want 3", got)
	}
}

func TestParetoEndpoint(t *testing.T) {
	ts := newTestServer(t, config{})
	req := `{"base":{"ram":"sram","node_nm":32,"block_bytes":64},
	         "capacities":["32KB","64KB"],"associativities":[1,4],"modes":["normal","seq"]}`
	resp, body := post(t, ts.URL+"/v1/pareto", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Points  int              `json:"points"`
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Points != 8 {
		t.Fatalf("swept %d points, want 8", env.Points)
	}
	if len(env.Results) == 0 || len(env.Results) >= env.Points {
		t.Fatalf("frontier size %d of %d", len(env.Results), env.Points)
	}
}

func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, config{maxPoints: 4})
	// Six points and five specs: one over the bound on every
	// multi-point route.
	bigGrid := `{"base":{"ram":"sram"},"capacities":["1MB","2MB","4MB"],"associativities":[1,2]}`
	bigBatch := `{"specs":[` + strings.Repeat(`{"ram":"sram","capacity":"1MB"},`, 4) + `{"ram":"sram","capacity":"1MB"}]}`
	cases := []struct {
		name, path, body string
		want             int
		errHas           string // substring the error message must carry
	}{
		{"malformed-json", "/v1/solve", `{"ram":`, http.StatusBadRequest, ""},
		{"unknown-field", "/v1/solve", `{"rum":"sram"}`, http.StatusBadRequest, ""},
		{"bad-ram", "/v1/solve", `{"ram":"flash","capacity":"1MB"}`, http.StatusBadRequest, ""},
		{"bad-size", "/v1/solve", `{"ram":"sram","capacity":"-1MB"}`, http.StatusBadRequest, ""},
		{"zero-capacity", "/v1/solve", `{"ram":"sram"}`, http.StatusBadRequest, ""},
		{"no-solution", "/v1/solve", `{"ram":"comm-dram","capacity":"1MB","page_bits":7,"cache":false}`,
			http.StatusUnprocessableEntity, ""},
		{"grid-too-big", "/v1/sweep", bigGrid, http.StatusBadRequest, "grid has 6 points, limit 4"},
		{"pareto-grid-too-big", "/v1/pareto", bigGrid, http.StatusBadRequest, "grid has 6 points, limit 4"},
		{"job-grid-too-big", "/v1/sweep-jobs", bigGrid, http.StatusBadRequest, "grid has 6 points, limit 4"},
		{"batch-too-big", "/v1/solve-batch", bigBatch, http.StatusBadRequest, "batch has 5 specs, limit 4"},
		{"fabric-batch-too-big", "/v1/solve-batch?wire=fabric", `{"specs":[{},{},{},{},{}]}`,
			http.StatusBadRequest, "batch has 5 specs, limit 4"},
		// 200 specs (6.4 KB) exceed the 5 KiB body bound of maxPoints 4:
		// refused before the spec list is decoded.
		{"body-too-large", "/v1/solve-batch",
			`{"specs":[` + strings.Repeat(`{"ram":"sram","capacity":"1MB"},`, 199) + `{}]}`,
			http.StatusRequestEntityTooLarge, "request body exceeds 5120 bytes"},
		{"unknown-tech", "/v1/solve", `{"tech":"flashy","capacity":"1MB"}`, http.StatusBadRequest, ""},
		{"ambiguous-tech", "/v1/solve", `{"tech":"it","capacity":"1MB"}`, http.StatusBadRequest, ""},
		{"unknown-tech-sweep", "/v1/sweep", `{"base":{"capacity":"64KB"},"techs":["flashy"]}`,
			http.StatusBadRequest, ""},
		{"ambiguous-tech-sweep", "/v1/sweep", `{"base":{"capacity":"64KB"},"techs":["itrs-"]}`,
			http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(e["error"], tc.errHas) {
				t.Fatalf("error %q lacks %q", e["error"], tc.errHas)
			}
		})
	}
	// Wrong method on a POST route.
	resp, _ := get(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestMetricsMatTableHits: two solves of one technology share the
// process-wide mat-stage table, so the second solve's lookups (its
// tag and data arrays at least) show up in /metrics as table hits.
func TestMetricsMatTableHits(t *testing.T) {
	ts := newTestServer(t, config{})
	solve := func(capacity string) {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/solve",
			`{"ram":"sram","node_nm":45,"associativity":4,"capacity":"`+capacity+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: status %d: %s", capacity, resp.StatusCode, body)
		}
	}
	hits := func() int64 {
		t.Helper()
		_, body := get(t, ts.URL+"/metrics")
		var m struct {
			Solver map[string]float64 `json:"solver"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("metrics not JSON: %v\n%s", err, body)
		}
		for _, key := range []string{"mat_table_hits", "mat_table_misses", "mat_table_clears"} {
			if _, ok := m.Solver[key]; !ok {
				t.Fatalf("solver block lacks %s: %v", key, m.Solver)
			}
		}
		return int64(m.Solver["mat_table_hits"])
	}
	solve("48KB")
	before := hits()
	solve("96KB")
	if after := hits(); after-before < 2 {
		t.Fatalf("mat_table_hits %d -> %d: the second solve's tag and data arrays should both hit", before, after)
	}
}

// TestMetricsSharedSubSolves: the points of one /v1/sweep share their
// array sub-solves. A sequential cache reads one way, so its data
// array ignores associativity, and the tag array ignores the access
// mode, so a grid over associativities in the sequential and fast
// modes raises both solver.shared_tag_hits and shared_data_hits in
// /metrics. A /v1/solve solves per point and moves neither.
func TestMetricsSharedSubSolves(t *testing.T) {
	ts := newTestServer(t, config{})
	shared := func() (tag, data int64) {
		t.Helper()
		_, body := get(t, ts.URL+"/metrics")
		var m struct {
			Solver map[string]float64 `json:"solver"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("metrics not JSON: %v\n%s", err, body)
		}
		for _, key := range []string{"shared_tag_hits", "shared_data_hits"} {
			if _, ok := m.Solver[key]; !ok {
				t.Fatalf("solver block lacks %s: %v", key, m.Solver)
			}
		}
		return int64(m.Solver["shared_tag_hits"]), int64(m.Solver["shared_data_hits"])
	}
	tag0, data0 := shared()
	resp, body := post(t, ts.URL+"/v1/sweep",
		`{"base":{"ram":"sram","node_nm":45,"capacity":"256KB"},"associativities":[2,4,8],"modes":["sequential","fast"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	tag1, data1 := shared()
	if tag1 <= tag0 || data1 <= data0 {
		t.Fatalf("shared_tag_hits %d -> %d, shared_data_hits %d -> %d: the sweep's points should share both", tag0, tag1, data0, data1)
	}
	resp, body = post(t, ts.URL+"/v1/solve", `{"ram":"sram","node_nm":45,"capacity":"512KB","associativity":4,"mode":"sequential"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	if tag2, data2 := shared(); tag2 != tag1 || data2 != data1 {
		t.Fatalf("a single solve moved shared_tag_hits %d -> %d, shared_data_hits %d -> %d", tag1, tag2, data1, data2)
	}
}

func TestMetricsReportCacheAndLatency(t *testing.T) {
	ts := newTestServer(t, config{})
	req := `{"ram":"sram","capacity":"32KB","associativity":2}`
	post(t, ts.URL+"/v1/solve", req)
	post(t, ts.URL+"/v1/solve", req) // cache hit
	_, body := get(t, ts.URL+"/metrics")

	var m struct {
		Requests map[string]int64 `json:"requests"`
		Cache    struct {
			Solves   int64   `json:"solves"`
			Hits     int64   `json:"cache_hits"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		Latency struct {
			Count   int64            `json:"count"`
			Sum     float64          `json:"sum"`
			Buckets []map[string]any `json:"buckets"`
		} `json:"request_latency_seconds"`
		InFlight int64 `json:"in_flight"`
		Solver   struct {
			Considered int64   `json:"orgs_considered"`
			Pruned     int64   `json:"orgs_pruned"`
			Built      int64   `json:"orgs_built"`
			PruneRatio float64 `json:"prune_ratio"`
		} `json:"solver"`
		Runtime struct {
			Goroutines int   `json:"goroutines"`
			HeapAlloc  int64 `json:"heap_alloc"`
			NumGC      int64 `json:"num_gc"`
		} `json:"runtime"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.Requests["solve"] != 2 || m.Requests["metrics"] != 1 {
		t.Fatalf("request counts %v", m.Requests)
	}
	if m.Cache.Solves != 1 || m.Cache.Hits != 1 || m.Cache.HitRatio != 0.5 {
		t.Fatalf("cache counters %+v", m.Cache)
	}
	if m.Latency.Count != 2 || m.Latency.Sum <= 0 {
		t.Fatalf("latency histogram %+v", m.Latency)
	}
	last := m.Latency.Buckets[len(m.Latency.Buckets)-1]
	if last["le"] != "+Inf" || int64(last["count"].(float64)) != 2 {
		t.Fatalf("+Inf bucket %v", last)
	}
	if m.InFlight != 0 {
		t.Fatalf("in_flight %d after quiesce", m.InFlight)
	}
	// Considered covers pruned + built + the rare circuit-build error.
	if m.Solver.Considered <= 0 || m.Solver.Built <= 0 ||
		m.Solver.Considered < m.Solver.Pruned+m.Solver.Built {
		t.Fatalf("solver counters %+v", m.Solver)
	}
	if m.Solver.PruneRatio <= 0 || m.Solver.PruneRatio >= 1 {
		t.Fatalf("prune ratio %g outside (0,1)", m.Solver.PruneRatio)
	}
	if m.Runtime.Goroutines <= 0 || m.Runtime.HeapAlloc <= 0 {
		t.Fatalf("runtime stats %+v", m.Runtime)
	}
}

func TestPprofFlagGatesDebugHandlers(t *testing.T) {
	off := newTestServer(t, config{})
	if resp, _ := get(t, off.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof index served without -pprof: %d", resp.StatusCode)
	}
	on := newTestServer(t, config{pprof: true})
	resp, body := get(t, on.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index with -pprof: %d %.80q", resp.StatusCode, body)
	}
	if resp, _ := get(t, on.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", resp.StatusCode)
	}
}

func TestPprofRejectsNonLoopbackPeers(t *testing.T) {
	s := mustServer(t, config{pprof: true})
	for _, remote := range []string{"203.0.113.9:4242", "[2001:db8::1]:4242", "10.0.0.7:80"} {
		req := httptest.NewRequest("GET", "/debug/pprof/", nil)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusForbidden {
			t.Errorf("pprof from %s: got %d, want 403", remote, rec.Code)
		}
	}
	for _, remote := range []string{"127.0.0.1:4242", "[::1]:4242"} {
		req := httptest.NewRequest("GET", "/debug/pprof/", nil)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("pprof from %s: got %d, want 200", remote, rec.Code)
		}
	}
}

// TestRefusalsAreJSON: every refusal is a writeError body. A full
// queue's 429, a draining server's 503 and pprof's 403 to a remote
// peer carry Content-Type application/json and one {"error": ...}
// line, and the 429 and the 503 carry a Retry-After hint.
func TestRefusalsAreJSON(t *testing.T) {
	parked, unpark := make(chan struct{}), make(chan struct{})
	park := func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		close(parked)
		<-unpark
		return &core.Solution{Spec: spec, Data: &array.Bank{}}, nil
	}
	s := mustServer(t, config{maxInFlight: 1, queueDepth: -1, solver: park, pprof: true})
	ts := httptest.NewServer(s)
	defer ts.Close()

	check := func(what string, code int, h http.Header, body []byte, wantCode int, wantBody string, retry bool) {
		t.Helper()
		if code != wantCode || string(body) != wantBody {
			t.Errorf("%s: %d %q, want %d %q", what, code, body, wantCode, wantBody)
		}
		if ct := h.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		}
		if got := h.Get("Retry-After") != ""; got != retry {
			t.Errorf("%s: Retry-After %q, want one: %v", what, h.Get("Retry-After"), retry)
		}
	}

	held := make(chan struct{})
	go func() {
		defer close(held)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"ram":"sram","capacity":"32KB","cache":false}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-parked
	resp, body := post(t, ts.URL+"/v1/solve", `{"ram":"sram","capacity":"64KB","cache":false}`)
	check("full queue", resp.StatusCode, resp.Header, body, http.StatusTooManyRequests,
		`{"error":"request queue full"}`+"\n", true)
	close(unpark)
	<-held

	s.drain()
	resp, body = post(t, ts.URL+"/v1/solve", `{"ram":"sram","capacity":"64KB","cache":false}`)
	check("draining", resp.StatusCode, resp.Header, body, http.StatusServiceUnavailable,
		`{"error":"server is draining"}`+"\n", true)

	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	req.RemoteAddr = "203.0.113.9:4242"
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	check("pprof", rec.Code, rec.Header(), rec.Body.Bytes(), http.StatusForbidden,
		`{"error":"pprof is loopback-only"}`+"\n", false)
}

func TestConcurrencyBoundRejectsExcess(t *testing.T) {
	slow := func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		time.Sleep(150 * time.Millisecond)
		return &core.Solution{Spec: spec, Data: &array.Bank{}}, nil
	}
	// queueDepth -1: no wait queue, excess requests shed immediately
	// with 429 — the pre-queue behavior, minus the old 503 status.
	ts := newTestServer(t, config{maxInFlight: 1, queueDepth: -1, solver: slow})

	const n = 4
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct capacities: no in-flight dedup between them.
			body := fmt.Sprintf(`{"ram":"sram","capacity":"%dKB","cache":false}`, 32<<i)
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	ok, busy := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			busy++
		}
	}
	if ok == 0 || busy == 0 || ok+busy != n {
		t.Fatalf("codes %v: want a mix of 200s and 429s", codes)
	}

	_, body := get(t, ts.URL+"/metrics")
	var m struct {
		Admission struct {
			Queued        int64 `json:"queued"`
			QueueMax      int64 `json:"queue_max"`
			RejectedQueue int64 `json:"rejected_queue_full"`
			RejectedWait  int64 `json:"rejected_wait"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v\n%s", err, body)
	}
	if got := m.Admission.RejectedQueue + m.Admission.RejectedWait; got != int64(busy) {
		t.Fatalf("admission rejects = %d, want %d (%+v)", got, busy, m.Admission)
	}
	if m.Admission.Queued != 0 || m.Admission.QueueMax != 0 {
		t.Fatalf("no-queue config recorded queue activity: %+v", m.Admission)
	}
}

func TestPerRequestTimeout(t *testing.T) {
	stuck := func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		time.Sleep(300 * time.Millisecond)
		return &core.Solution{Spec: spec, Data: &array.Bank{}}, nil
	}
	ts := newTestServer(t, config{timeout: 30 * time.Millisecond, solver: stuck})
	// A sweep checks its context after solving; the deadline surfaces
	// as 504.
	resp, body := post(t, ts.URL+"/v1/sweep",
		`{"base":{"ram":"sram"},"capacities":["32KB","64KB"]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}
