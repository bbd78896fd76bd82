package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cactid/internal/array"
	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/fabric"
	"cactid/internal/tech"
)

// waitGoroutinesSettle polls until the goroutine count returns to
// (near) its baseline: shed requests and queue waiters must not leave
// goroutines behind once the server and client quiesce.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+3 { // slack for runtime helpers
			return
		}
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func slowSolver(d time.Duration) func(context.Context, core.Spec) (*core.Solution, error) {
	return func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &core.Solution{Spec: spec, Data: &array.Bank{}}, nil
	}
}

// TestServeOverloadShedding drives concurrency far beyond the
// admission bound and checks the overload contract: every request is
// answered 200 or 429 (nothing hangs, nothing 5xx), every shed
// response carries Retry-After, the queue high-water mark never
// exceeds the configured depth, and no goroutines leak.
func TestServeOverloadShedding(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := config{
		maxInFlight: 2,
		queueDepth:  2,
		queueWait:   50 * time.Millisecond,
		solver:      slowSolver(100 * time.Millisecond),
	}
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s)
	client := ts.Client()

	const n = 32 // ≫ maxInFlight + queueDepth
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct capacities so in-flight dedup never collapses load.
			body := fmt.Sprintf(`{"ram":"sram","capacity":"%dKB","cache":false}`, 32+i)
			resp, err := client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
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

	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("want a mix of served and shed requests, got %d/%d", ok, shed)
	}

	_, body := get(t, ts.URL+"/metrics")
	var m struct {
		Admission struct {
			Queued        int64 `json:"queued"`
			QueueMax      int64 `json:"queue_max"`
			RejectedQueue int64 `json:"rejected_queue_full"`
			RejectedWait  int64 `json:"rejected_wait"`
			RejectedDrain int64 `json:"rejected_draining"`
		} `json:"admission"`
		Limits struct {
			QueueDepth int64 `json:"queue_depth"`
		} `json:"limits"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v\n%s", err, body)
	}
	if m.Admission.QueueMax > m.Limits.QueueDepth {
		t.Fatalf("queue_max %d exceeds queue_depth %d", m.Admission.QueueMax, m.Limits.QueueDepth)
	}
	if m.Admission.Queued != 0 {
		t.Fatalf("queued gauge %d after quiesce", m.Admission.Queued)
	}
	if got := m.Admission.RejectedQueue + m.Admission.RejectedWait; got != int64(shed) {
		t.Fatalf("shed accounting: metrics %d, responses %d", got, shed)
	}
	if m.Admission.RejectedDrain != 0 {
		t.Fatal("drain rejections without a drain")
	}

	client.CloseIdleConnections()
	ts.Close()
	waitGoroutinesSettle(t, base)
}

// TestQueueWaitBudget: a queued request that cannot get a slot within
// queueWait is shed with 429 and counted under rejected_wait.
func TestQueueWaitBudget(t *testing.T) {
	cfg := config{
		maxInFlight: 1,
		queueDepth:  4,
		queueWait:   30 * time.Millisecond,
		solver:      slowSolver(300 * time.Millisecond),
	}
	ts := newTestServer(t, cfg)

	release := make(chan struct{})
	go func() {
		defer close(release)
		post(t, ts.URL+"/v1/solve", `{"ram":"sram","capacity":"32KB","cache":false}`)
	}()
	time.Sleep(20 * time.Millisecond) // let the slot fill

	resp, _ := post(t, ts.URL+"/v1/solve", `{"ram":"sram","capacity":"64KB","cache":false}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request past wait budget: %d, want 429", resp.StatusCode)
	}
	<-release

	_, body := get(t, ts.URL+"/metrics")
	var m struct {
		Admission struct {
			RejectedWait int64 `json:"rejected_wait"`
			QueueMax     int64 `json:"queue_max"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.RejectedWait != 1 || m.Admission.QueueMax != 1 {
		t.Fatalf("admission %+v, want rejected_wait=1 queue_max=1", m.Admission)
	}
}

// TestDrainShedsQueuedAndNewRequests: drain() answers queued waiters
// and new arrivals with 503 while in-flight work completes, and
// healthz flips unready.
func TestDrainShedsQueuedAndNewRequests(t *testing.T) {
	cfg := config{
		maxInFlight: 1,
		queueDepth:  4,
		queueWait:   5 * time.Second,
		solver:      slowSolver(200 * time.Millisecond),
	}
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"ram":"sram","capacity":"32KB","cache":false}`))
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	queued := make(chan int, 1)
	go func() {
		time.Sleep(30 * time.Millisecond) // after the slot fills
		resp, _ := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"ram":"sram","capacity":"64KB","cache":false}`))
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	time.Sleep(80 * time.Millisecond) // both requests in place
	s.drain()
	s.drain() // idempotent

	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Fatalf("queued waiter after drain: %d, want 503", code)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d, want 200", code)
	}
	resp, _ := post(t, ts.URL+"/v1/solve", `{"ram":"sram","capacity":"96KB","cache":false}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("new request on draining server: %d (Retry-After %q), want 503",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestDeadlineHeaderShortensTimeout: X-Cactid-Timeout propagates as
// the request deadline when shorter than the server ceiling, and
// cannot extend past it.
func TestDeadlineHeaderShortensTimeout(t *testing.T) {
	ts := newTestServer(t, config{timeout: 5 * time.Second, solver: slowSolver(250 * time.Millisecond)})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweep",
		strings.NewReader(`{"base":{"ram":"sram"},"capacities":["32KB","64KB"]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cactid-Timeout", "40ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("short client deadline: %d, want 504", resp.StatusCode)
	}

	// A header longer than the server ceiling must not extend it.
	s := mustServer(t, config{timeout: time.Millisecond, solver: slowSolver(250 * time.Millisecond)})
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest("POST", "/v1/sweep",
		strings.NewReader(`{"base":{"ram":"sram"},"capacities":["32KB"]}`))
	hreq.Header.Set("X-Cactid-Timeout", "1h")
	s.ServeHTTP(rec, hreq)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("client cannot extend the ceiling: %d, want 504", rec.Code)
	}
}

// TestChaosServerNoUnexpected5xx arms every injection point at a
// fixed seed and hammers the API: every catalogued point must fire,
// and the server must never answer 5xx — injected faults surface as
// 429, 499 or per-point errors inside 200 envelopes, never as server
// errors. The store.* points prove the durable tier's failure
// semantics: recovery faults are absorbed at Open, read faults
// degrade to misses, write faults drop durability — and no fault mix
// ever yields a corrupt read.
func TestChaosServerNoUnexpected5xx(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := chaos.New(7,
		chaos.Rule{Point: chaos.ServeAdmit, Fault: chaos.Cancel, Rate: 0.25},
		chaos.Rule{Point: chaos.ServeHandler, Fault: chaos.Latency, Rate: 0.5, Latency: time.Millisecond},
		chaos.Rule{Point: chaos.ExploreWorker, Fault: chaos.Panic, Rate: 0.3},
		chaos.Rule{Point: chaos.ExploreSolve, Fault: chaos.Cancel, Rate: 0.3},
		chaos.Rule{Point: chaos.CacheLookup, Fault: chaos.Miss, Rate: 1},
		// Only Cancel at store.recover: Open absorbs injected faults
		// by contract, and a Panic there would (correctly) escape —
		// there is no request to confine it to.
		chaos.Rule{Point: chaos.StoreRecover, Fault: chaos.Cancel, Rate: 1},
		chaos.Rule{Point: chaos.StoreGet, Fault: chaos.Cancel, Rate: 0.3},
		chaos.Rule{Point: chaos.StorePut, Fault: chaos.Cancel, Rate: 0.3},
		chaos.Rule{Point: chaos.FabricDispatch, Fault: chaos.Cancel, Rate: 0.3},
	)
	fast := func(_ context.Context, spec core.Spec) (*core.Solution, error) {
		return &core.Solution{Spec: spec, Data: &array.Bank{}}, nil
	}
	s := mustServer(t, config{maxInFlight: 4, queueDepth: 4, queueWait: time.Second,
		solver: fast, chaos: inj, storeDir: t.TempDir()})
	ts := httptest.NewServer(s)
	client := ts.Client()

	check := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("chaos produced %d, no 5xx allowed outside drain", resp.StatusCode)
		}
	}
	solve := `{"ram":"sram","capacity":"32KB","cache":false}`
	sweep := `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB","256KB"],"associativities":[1,2]}`
	for i := 0; i < 24; i++ {
		// The repeated solve exercises the cache-lookup point (forced
		// misses); sweeps exercise the worker and solve points.
		check(client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(solve)))
		if i%3 == 0 {
			check(client.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweep)))
		}
	}

	// The fabric point arms through a coordinator sharding sweeps
	// across two in-process workers under the same schedule, one
	// dispatch per owner; three sweeps of fresh specs give the
	// injected dispatch cancels batches to reroute. Every point must
	// still come back solved.
	co := fabric.New(fabric.Config{
		Workers: []fabric.Worker{
			&fabric.EngineWorker{WorkerName: "stress-0",
				Engine: explore.New(explore.Options{Workers: 1, Solver: fast})},
			&fabric.EngineWorker{WorkerName: "stress-1",
				Engine: explore.New(explore.Options{Workers: 1, Solver: fast})},
		},
		Chaos: inj,
		Local: explore.New(explore.Options{Workers: 1, Solver: fast}).Sweep,
	})
	for sweep := 0; sweep < 3; sweep++ {
		fabricSpecs := make([]core.Spec, 24)
		for i := range fabricSpecs {
			fabricSpecs[i] = core.Spec{RAM: tech.SRAM, CapacityBytes: int64(24*sweep+i+1) << 10, BlockBytes: 64}
		}
		for i, r := range co.Sweep(context.Background(), fabricSpecs, nil) {
			if r.Err != nil {
				t.Errorf("sweep %d: fabric point %d failed under chaos: %v", sweep, i, r.Err)
			}
		}
	}
	co.Close()

	snap := inj.Snapshot()
	for _, p := range chaos.Points() {
		ps := snap[p]
		if ps.Armed == 0 {
			t.Errorf("point %s never armed", p)
		}
		if ps.Fired() == 0 {
			t.Errorf("point %s armed %d times but never fired", p, ps.Armed)
		}
	}

	// The armed server's /metrics carries the per-point chaos block,
	// and the store block must report zero corrupt reads: faults may
	// cost hits and durability, never integrity.
	_, body := get(t, ts.URL+"/metrics")
	var m struct {
		Chaos map[string]map[string]int64 `json:"chaos"`
		Store map[string]int64            `json:"store"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Chaos) != len(chaos.Points()) {
		t.Fatalf("metrics chaos block has %d points, want %d:\n%s", len(m.Chaos), len(chaos.Points()), body)
	}
	if m.Store == nil {
		t.Fatalf("metrics store block missing:\n%s", body)
	}
	if m.Store["corrupt_reads"] != 0 {
		t.Fatalf("chaos run produced %d corrupt reads, want 0", m.Store["corrupt_reads"])
	}
	if m.Store["recover_faults"] != 1 {
		t.Fatalf("recover_faults = %d, want 1 (absorbed at Open)", m.Store["recover_faults"])
	}

	client.CloseIdleConnections()
	ts.Close()
	waitGoroutinesSettle(t, base)
}
