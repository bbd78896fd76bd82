package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/explore"
)

// submitJob posts a sweep job and returns its id.
func submitJob(t *testing.T, base, grid string) string {
	t.Helper()
	resp, body := post(t, base+"/v1/sweep-jobs", grid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit answer %s: %v", body, err)
	}
	return sub.ID
}

// finishJob submits a job, polls it to done and returns its id and
// the body of the poll that saw it done.
func finishJob(t *testing.T, base, grid string) (string, []byte) {
	t.Helper()
	id := submitJob(t, base, grid)
	pollJob(t, base+"/v1/sweep-jobs/"+id, func(m map[string]any) bool { return m["state"] == jobDone })
	_, body := get(t, base+"/v1/sweep-jobs/"+id)
	return id, body
}

func sweepJobStats(t *testing.T, base string) jobStats {
	t.Helper()
	var m struct {
		SweepJobs jobStats `json:"sweep_jobs"`
	}
	_, body := get(t, base+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m.SweepJobs
}

// storeWrites is the /metrics store.writes counter.
func storeWrites(t *testing.T, base string) int64 {
	t.Helper()
	var m struct {
		Store map[string]int64 `json:"store"`
	}
	_, body := get(t, base+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m.Store["writes"]
}

// capacityGrid is a 24-point job grid: six capacities from first
// doubling upward, over four bank counts.
func capacityGrid(firstKB int) string {
	caps := make([]string, 6)
	for i := range caps {
		caps[i] = fmt.Sprintf("%q", fmt.Sprintf("%dKB", firstKB<<i))
	}
	return `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":[` +
		strings.Join(caps, ",") + `],"banks":[1,2,4,8]}`
}

// TestSweepJobFinishedLeavesMemory: with -max-points 64, three
// finished 24-point jobs do not all stay in memory. The newest answers
// with the bytes it answered when it finished, cached markers
// included. With a store, the evicted oldest answers done on its first
// poll, with the original's results apart from their cached markers,
// and is then the newest resident job; without a store it answers
// 404.
func TestSweepJobFinishedLeavesMemory(t *testing.T) {
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("store=%v", durable), func(t *testing.T) {
			n, solver := persistableSolver()
			cfg := config{solver: solver, maxPoints: 64}
			if durable {
				cfg.storeDir = t.TempDir()
			}
			ts := newTestServer(t, cfg)
			// Each grid shares three capacities with the one before, so
			// the later jobs carry both cached markers.
			oldest, oldestBody := finishJob(t, ts.URL, capacityGrid(32))
			finishJob(t, ts.URL, capacityGrid(256))
			newest, newestBody := finishJob(t, ts.URL, capacityGrid(2048))
			if !bytes.Contains(newestBody, []byte(`"cached": true`)) || !bytes.Contains(newestBody, []byte(`"cached": false`)) {
				t.Fatalf("test setup: the newest job should mix cached markers:\n%s", newestBody)
			}
			if st := sweepJobStats(t, ts.URL); st.Resident != 2 || st.ResidentPoints != 48 || st.Evicted != 1 {
				t.Fatalf("after three 24-point jobs under a 64-point budget: %+v, want 2 resident holding 48, 1 evicted", st)
			}
			if _, body := get(t, ts.URL+"/v1/sweep-jobs/"+newest); !bytes.Equal(body, newestBody) {
				t.Fatalf("the newest job's poll changed:\n%s\nwas\n%s", body, newestBody)
			}

			solves := n.Load()
			resp, body := get(t, ts.URL+"/v1/sweep-jobs/"+oldest)
			if !durable {
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("an evicted job without a store: %d %s, want 404", resp.StatusCode, body)
				}
				return
			}
			uncached := func(b []byte) []byte {
				return bytes.ReplaceAll(b, []byte(`"cached": true`), []byte(`"cached": false`))
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(uncached(body), uncached(oldestBody)) {
				t.Fatalf("the evicted job read back as %d\n%s\nwant, apart from cached markers,\n%s", resp.StatusCode, body, oldestBody)
			}
			if n.Load() != solves {
				t.Fatalf("reading the evicted job back ran the solver %d times", n.Load()-solves)
			}
			if _, again := get(t, ts.URL+"/v1/sweep-jobs/"+oldest); !bytes.Equal(again, body) {
				t.Fatal("a second poll of the read-back job answered other bytes")
			}
			// The read-back job is the newest resident one now, so the
			// middle job made room for it.
			st := sweepJobStats(t, ts.URL)
			if st.Resident != 2 || st.ResidentPoints != 48 || st.Evicted != 2 || st.ReadBack != 1 {
				t.Fatalf("after the read-back: %+v, want 2 resident holding 48, 2 evicted, 1 read back", st)
			}
			if _, body := get(t, ts.URL+"/v1/sweep-jobs/"+newest); !bytes.Equal(body, newestBody) {
				t.Fatalf("the newest job's poll changed after the read-back:\n%s", body)
			}
		})
	}
}

// TestSweepJobReadBackWritesNothing: a second server on the store
// directory of one that finished a job answers its first poll of that
// job done, with every point and no resumed_from, solves nothing,
// writes nothing to the store and counts no resumed job.
func TestSweepJobReadBackWritesNothing(t *testing.T) {
	dir := warmStoreDir(t)
	_, solverA := persistableSolver()
	sA, err := newServer(config{solver: solverA, storeDir: dir, checkpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA)
	id, _ := finishJob(t, tsA.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB"],"banks":[1,2]}`)
	tsA.Close()
	sA.close()

	n, solverB := persistableSolver()
	tsB := newTestServer(t, config{solver: solverB, storeDir: dir, checkpointEvery: 2})
	before := storeWrites(t, tsB.URL)
	resp, body := get(t, tsB.URL+"/v1/sweep-jobs/"+id)
	var first map[string]any
	if err := json.Unmarshal(body, &first); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("first poll: %d %s", resp.StatusCode, body)
	}
	if first["state"] != jobDone || jobCompleted(first) != 6 || first["resumed_from"] != nil {
		t.Fatalf("first poll after a restart: state %v, completed %v, resumed_from %v; want done, 6, none",
			first["state"], first["completed"], first["resumed_from"])
	}
	if results, _ := first["results"].([]any); len(results) != 6 {
		t.Fatalf("first poll carried %d results, want 6", len(results))
	}
	if after := storeWrites(t, tsB.URL); after != before {
		t.Fatalf("reading a finished job back wrote %d store records", after-before)
	}
	if n.Load() != 0 {
		t.Fatalf("reading a finished job back ran the solver %d times, want 0", n.Load())
	}
	if st := sweepJobStats(t, tsB.URL); st.Resumed != 0 || st.ReadBack != 1 || st.Active != 0 {
		t.Fatalf("sweep_jobs after the read-back: %+v, want resumed 0, read_back 1, active 0", st)
	}
}

// TestSweepJobReadBackHoldsSlot: a read-back's re-sweep passes the
// admission gate. While a /v1/sweep parked in the solver holds the
// one slot, polling a finished job that left memory is refused 429
// with a Retry-After, counted under admission and not under
// read_back. Once the slot frees, the poll answers all six results
// with no solve and no store write.
func TestSweepJobReadBackHoldsSlot(t *testing.T) {
	dir := warmStoreDir(t)
	_, solverA := persistableSolver()
	sA, err := newServer(config{solver: solverA, storeDir: dir, checkpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA)
	id, _ := finishJob(t, tsA.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB"],"banks":[1,2]}`)
	tsA.Close()
	sA.close()

	n, solverB := persistableSolver()
	parked, unpark := make(chan struct{}), make(chan struct{})
	park := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		close(parked)
		<-unpark
		return solverB(ctx, spec)
	}
	tsB := newTestServer(t, config{solver: park, storeDir: dir, checkpointEvery: 2,
		maxInFlight: 1, queueDepth: -1})
	free := sync.OnceFunc(func() { close(unpark) })
	t.Cleanup(free) // before tsB closes, should the test stop early
	swept := make(chan int, 1)
	go func() {
		resp, err := http.Post(tsB.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["1MB"]}`))
		if err != nil {
			swept <- 0
			return
		}
		resp.Body.Close()
		swept <- resp.StatusCode
	}()
	<-parked
	resp, body := get(t, tsB.URL+"/v1/sweep-jobs/"+id)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("poll with the slot held: %d (Retry-After %q) %s, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	free()
	if code := <-swept; code != http.StatusOK {
		t.Fatalf("parked sweep: %d, want 200", code)
	}

	before, solves := storeWrites(t, tsB.URL), n.Load()
	resp, body = get(t, tsB.URL+"/v1/sweep-jobs/"+id)
	var view map[string]any
	if err := json.Unmarshal(body, &view); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("poll with the slot free: %d %s", resp.StatusCode, body)
	}
	if results, _ := view["results"].([]any); view["state"] != jobDone || len(results) != 6 {
		t.Fatalf("poll with the slot free: state %v, %d results; want done, 6", view["state"], len(results))
	}
	if after := storeWrites(t, tsB.URL); after != before || n.Load() != solves {
		t.Fatalf("read-back wrote %d store records and ran %d solves, want 0 and 0", after-before, n.Load()-solves)
	}
	var m struct {
		Admission struct {
			RejectedQueue int64 `json:"rejected_queue_full"`
		} `json:"admission"`
		SweepJobs jobStats `json:"sweep_jobs"`
	}
	_, body = get(t, tsB.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.RejectedQueue != 1 || m.SweepJobs.ReadBack != 1 {
		t.Fatalf("admission rejected_queue_full %d, sweep_jobs read_back %d; want 1 and 1",
			m.Admission.RejectedQueue, m.SweepJobs.ReadBack)
	}
}

// TestSweepJobOneRecordPerState: a 4-point job checkpointed every two
// points writes its four solutions and three records: at submit, after
// its first chunk and when done. The chunk that completes the grid
// leaves the record to the done write.
func TestSweepJobOneRecordPerState(t *testing.T) {
	_, solver := persistableSolver()
	ts := newTestServer(t, config{solver: solver, storeDir: t.TempDir(), checkpointEvery: 2})
	before := storeWrites(t, ts.URL)
	finishJob(t, ts.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB","256KB"]}`)
	if got := storeWrites(t, ts.URL) - before; got != 4+3 {
		t.Fatalf("a 4-point job wrote %d store records, want 4 solutions and 3 job records", got)
	}
}

// TestSweepJobRecordParentBytes: job records laid out as checkpoint
// has written them since ModelVersion 2 decode to the same values and
// marshal back to the same bytes. Together the rows set every
// jobRecord field, so a renamed key or a changed type fails a row.
func TestSweepJobRecordParentBytes(t *testing.T) {
	yes, no := true, false
	rows := []struct {
		raw  string
		want jobRecord
	}{
		{`{"id":"5f0c9a1e7d3b2846","request":{"base":{"ram":"sram","block_bytes":64,"cache":true},"capacities":["1KB","2KB"],"associativities":[8,32]},"model_version":2,"points":3,"skipped":1,"cursor":3,"state":"done"}`,
			jobRecord{ID: "5f0c9a1e7d3b2846", ModelVersion: 2, Points: 3, Skipped: 1, Cursor: 3, State: jobDone,
				Request: explore.SweepRequest{Base: explore.SpecRequest{RAM: "sram", BlockBytes: 64, Cache: &yes},
					Capacities: []string{"1KB", "2KB"}, Associativities: []int{8, 32}}}},
		{`{"id":"c81d40f2a96b3e57","request":{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB","256KB"],"banks":[1,2]},"model_version":2,"points":8,"skipped":0,"cursor":8,"state":"done","resumed_from":4}`,
			jobRecord{ID: "c81d40f2a96b3e57", ModelVersion: 2, Points: 8, Cursor: 8, State: jobDone, ResumedFrom: 4,
				Request: explore.SweepRequest{Base: explore.SpecRequest{RAM: "sram", BlockBytes: 64, Cache: &no},
					Capacities: []string{"32KB", "64KB", "128KB", "256KB"}, Banks: []int{1, 2}}}},
		{`{"id":"9e27b5d03fa4c618","request":{"base":{"tech":"stt-ram","node_nm":32},"capacities":["1MB"],"associativities":[8],"modes":["fast","sequential"]},"model_version":2,"points":3,"skipped":0,"cursor":0,"state":"failed","error":"sweep job grid expands to 2 points (0 skipped), checkpoint recorded 3 (0 skipped)"}`,
			jobRecord{ID: "9e27b5d03fa4c618", ModelVersion: 2, Points: 3, State: jobFailed,
				Error: "sweep job grid expands to 2 points (0 skipped), checkpoint recorded 3 (0 skipped)",
				Request: explore.SweepRequest{Base: explore.SpecRequest{Technology: "stt-ram", NodeNM: 32},
					Capacities: []string{"1MB"}, Associativities: []int{8}, Modes: []string{"fast", "sequential"}}}},
	}
	set := make([]bool, reflect.TypeOf(jobRecord{}).NumField())
	for _, row := range rows {
		var got jobRecord
		if err := json.Unmarshal([]byte(row.raw), &got); err != nil || !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s\ndecodes to %+v (%v), want %+v", row.raw, got, err, row.want)
		}
		if b, err := json.Marshal(row.want); string(b) != row.raw {
			t.Errorf("%+v marshals to\n%s (%v), want\n%s", row.want, b, err, row.raw)
		}
		for i := range set {
			set[i] = set[i] || !reflect.ValueOf(row.want).Field(i).IsZero()
		}
	}
	for i, ok := range set {
		if !ok {
			t.Errorf("no row sets jobRecord.%s", reflect.TypeOf(jobRecord{}).Field(i).Name)
		}
	}
}

// blockingWriter is a stream's ResponseWriter that holds its first
// write until unblock closes, recording everything written.
type blockingWriter struct {
	h       http.Header
	buf     bytes.Buffer
	first   chan struct{} // closed when the first write arrives
	unblock chan struct{}
}

func (b *blockingWriter) Header() http.Header { return b.h }
func (b *blockingWriter) WriteHeader(int)     {}
func (b *blockingWriter) Write(p []byte) (int, error) {
	if b.buf.Len() == 0 {
		close(b.first)
		<-b.unblock
	}
	return b.buf.Write(p)
}

// TestSweepJobEvictWhileStreaming: a stream that holds its job keeps
// serving it after the job finishes and is evicted. The stream's first
// write is held while its job finishes and a later job evicts it (a
// server without a store then answers the job's id 404); released, the
// stream still delivers every point and the done line.
func TestSweepJobEvictWhileStreaming(t *testing.T) {
	release := make(chan struct{})
	_, fast := persistableSolver()
	solver := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		if spec.CapacityBytes == 128<<10 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fast(ctx, spec)
	}
	s := mustServer(t, config{solver: solver, maxPoints: 4, checkpointEvery: 2, workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := submitJob(t, ts.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB","256KB"]}`)

	w := &blockingWriter{h: http.Header{}, first: make(chan struct{}), unblock: make(chan struct{})}
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/sweep-jobs/"+id+"/stream", nil))
	}()
	<-w.first // the first chunk's two results, held
	close(release)
	pollJob(t, ts.URL+"/v1/sweep-jobs/"+id, func(m map[string]any) bool { return m["state"] == jobDone })
	finishJob(t, ts.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["512KB"]}`)
	if resp, body := get(t, ts.URL+"/v1/sweep-jobs/"+id); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("the streamed job was not evicted: %d %s", resp.StatusCode, body)
	}
	close(w.unblock)
	<-streamed

	var points, terminal int
	sc := bufio.NewScanner(&w.buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line["fingerprint"] != nil:
			if idx, _ := line["index"].(float64); int(idx) != points || terminal != 0 {
				t.Fatalf("stream line %q out of order", sc.Text())
			}
			points++
		case line["state"] == jobDone && jobCompleted(line) == 4:
			terminal++
		default:
			t.Fatalf("unexpected stream line %q", sc.Text())
		}
	}
	if points != 4 || terminal != 1 {
		t.Fatalf("the stream of an evicted job carried %d points, %d done lines; want 4, 1:\n%s", points, terminal, w.buf.Bytes())
	}
}

// TestSweepJobEvictMetrics: after jobs of 1 to 10 points under a
// 16-point budget, the resident finished jobs hold at most 16 points
// and every other job was evicted.
func TestSweepJobEvictMetrics(t *testing.T) {
	const jobs, budget = 10, 16
	_, solver := persistableSolver()
	ts := newTestServer(t, config{solver: solver, maxPoints: budget})
	for i := 1; i <= jobs; i++ {
		caps := make([]string, i)
		for k := range caps {
			caps[k] = fmt.Sprintf(`"%dKB"`, 32*(i*jobs+k))
		}
		finishJob(t, ts.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":[`+strings.Join(caps, ",")+`]}`)
	}
	st := sweepJobStats(t, ts.URL)
	if st.ResidentPoints > budget || st.Resident == 0 || st.Evicted != jobs-int64(st.Resident) {
		t.Fatalf("after %d jobs under a %d-point budget: %+v", jobs, budget, st)
	}
	if st.Submitted != jobs || st.Completed != jobs || st.Active != 0 {
		t.Fatalf("job counters after %d finished jobs: %+v", jobs, st)
	}
}

// TestSweepJobInFlightBound: job workers run outside the admission
// gate, so submit bounds them itself. With -max-inflight 2 and two
// jobs parked in the solver, a third submit is shed with the gate's
// 429 and Retry-After; once one job finishes, a submit is accepted.
func TestSweepJobInFlightBound(t *testing.T) {
	park := map[int64]chan struct{}{32 << 10: make(chan struct{}), 64 << 10: make(chan struct{})}
	_, fast := persistableSolver()
	solver := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		if ch := park[spec.CapacityBytes]; ch != nil {
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fast(ctx, spec)
	}
	ts := newTestServer(t, config{solver: solver, maxInFlight: 2})
	grid := func(capacity string) string {
		return `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["` + capacity + `"]}`
	}
	first := submitJob(t, ts.URL, grid("32KB"))
	submitJob(t, ts.URL, grid("64KB"))
	resp, body := post(t, ts.URL+"/v1/sweep-jobs", grid("128KB"))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("third submit with two jobs running: %d (Retry-After %q) %s, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if st := sweepJobStats(t, ts.URL); st.Active != 2 || st.Submitted != 2 {
		t.Fatalf("sweep_jobs with two parked jobs: %+v, want active 2, submitted 2", st)
	}
	close(park[32<<10])
	pollJob(t, ts.URL+"/v1/sweep-jobs/"+first, func(m map[string]any) bool { return m["state"] == jobDone })
	submitJob(t, ts.URL, grid("128KB"))
	close(park[64<<10])
}

// TestSweepJobOutlivesOtherClientsDeadline: a job point that parks on
// another client's in-flight solve of the same spec does not inherit
// that client's deadline. The /v1/solve answers 504 at its 100 ms
// X-Cactid-Timeout; the job then solves the point itself and finishes
// instead of stopping as if the drain had cut it off.
func TestSweepJobOutlivesOtherClientsDeadline(t *testing.T) {
	n, fast := persistableSolver()
	var calls atomic.Int64
	started := make(chan struct{})
	solver := func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // the first solve lasts until its request's deadline
			return nil, ctx.Err()
		}
		return fast(ctx, spec)
	}
	ts := newTestServer(t, config{solver: solver})
	solved := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/solve",
			strings.NewReader(`{"ram":"sram","capacity":"64KB","block_bytes":64,"cache":false}`))
		req.Header.Set("X-Cactid-Timeout", "100ms")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			solved <- 0
			return
		}
		resp.Body.Close()
		solved <- resp.StatusCode
	}()
	select {
	case <-started:
	case code := <-solved:
		t.Fatalf("/v1/solve answered %d before reaching the solver", code)
	}
	id := submitJob(t, ts.URL, `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["64KB"]}`)
	if code := <-solved; code != http.StatusGatewayTimeout {
		t.Fatalf("/v1/solve past its X-Cactid-Timeout: %d, want 504", code)
	}
	m := pollJob(t, ts.URL+"/v1/sweep-jobs/"+id, func(m map[string]any) bool { return m["state"] != jobRunning })
	results, _ := m["results"].([]any)
	if m["state"] != jobDone || jobCompleted(m) != 1 || len(results) != 1 {
		t.Fatalf("job sharing the timed-out point: state %v, completed %v, %d results; want done, 1, 1",
			m["state"], m["completed"], len(results))
	}
	if point, _ := results[0].(map[string]any); point["error"] != nil {
		t.Fatalf("job point failed: %v", point["error"])
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("job solved the point %d times, want 1", got)
	}
}

// chaosJob is a four-point sweep job.
const chaosJob = `{"base":{"ram":"sram","block_bytes":64,"cache":false},"capacities":["32KB","64KB","128KB","256KB"]}`

// TestSweepJobChaosCancelFails: a job every solve of which takes an
// injected Cancel at explore.solve, while the server is live, sweeps
// its canceled points once more and then fails, naming the point; it
// records no canceled point as a result and does not stay running.
func TestSweepJobChaosCancelFails(t *testing.T) {
	inj := chaos.New(1, chaos.Rule{Point: chaos.ExploreSolve, Fault: chaos.Cancel, Rate: 1})
	m, solves := runChaosJob(t, inj)
	results, _ := m["results"].([]any)
	msg, _ := m["error"].(string)
	if m["state"] != jobFailed || jobCompleted(m) != 0 || len(results) != 0 || !strings.Contains(msg, "point 0 canceled twice") {
		t.Fatalf("job under a rate-1 cancel: state %v, completed %v, %d results, error %q; want failed at point 0 with none",
			m["state"], m["completed"], len(results), msg)
	}
	if cancels := inj.Snapshot()[chaos.ExploreSolve].Cancels; cancels < 2 {
		t.Fatalf("%d injected cancels: point 0 was not swept twice", cancels)
	}
	if solves != 0 {
		t.Fatalf("the solver ran %d times behind a rate-1 cancel", solves)
	}
}

// chaosSeed returns the first seed on which rule fires on exactly the
// arms fire marks among the first len(fire) arms of its point.
func chaosSeed(rule chaos.Rule, fire ...bool) uint64 {
	for seed := uint64(1); ; seed++ {
		probe, match := chaos.New(seed, rule), true
		for _, want := range fire {
			if (probe.Inject(context.Background(), rule.Point) != nil) != want {
				match = false
				break
			}
		}
		if match {
			return seed
		}
	}
}

// runChaosJob submits chaosJob to a server whose solves go through inj
// and returns the job once it leaves running, with the solver's call
// count.
func runChaosJob(t *testing.T, inj *chaos.Injector) (map[string]any, int64) {
	t.Helper()
	n, fast := persistableSolver()
	ts := newTestServer(t, config{solver: fast, chaos: inj})
	id := submitJob(t, ts.URL, chaosJob)
	m := pollJob(t, ts.URL+"/v1/sweep-jobs/"+id, func(m map[string]any) bool { return m["state"] != jobRunning })
	return m, n.Load()
}

// wantJobDone fails t unless job m finished done with all four points
// solved.
func wantJobDone(t *testing.T, m map[string]any) {
	t.Helper()
	results, _ := m["results"].([]any)
	if m["state"] != jobDone || jobCompleted(m) != 4 || len(results) != 4 {
		t.Fatalf("job: state %v, completed %v, %d results, error %v; want done with 4",
			m["state"], m["completed"], len(results), m["error"])
	}
	for i, r := range results {
		if point, _ := r.(map[string]any); point["error"] != nil {
			t.Fatalf("point %d: %v", i, point["error"])
		}
	}
}

// TestSweepJobChaosCancelRetried: a job one solve of which takes an
// injected Cancel (a rule that fires on the first arm of explore.solve
// and on none after) retries that point and finishes done, every point
// solved once.
func TestSweepJobChaosCancelRetried(t *testing.T) {
	rule := chaos.Rule{Point: chaos.ExploreSolve, Fault: chaos.Cancel, Rate: 0.1}
	// Two sweeps of the four points at most.
	inj := chaos.New(chaosSeed(rule, true, false, false, false, false, false, false, false, false), rule)
	m, solves := runChaosJob(t, inj)
	wantJobDone(t, m)
	if cancels := inj.Snapshot()[chaos.ExploreSolve].Cancels; cancels != 1 {
		t.Fatalf("%d injected cancels, want 1", cancels)
	}
	if solves != 4 {
		t.Fatalf("the solver ran %d times for 4 points", solves)
	}
}

// TestSweepJobChaosCancelRetriedTail: a point canceled for the first
// time while an earlier point is retried gets its own retry rather
// than failing the job. explore.worker arms once per point, cached or
// not, in point order (a four-point sweep runs on one worker): its
// first arm cancels point 0, and the seventh cancels point 2 in the
// sweep that retries points 0-3; a third sweep retries points 2-3 and
// the job finishes done.
func TestSweepJobChaosCancelRetriedTail(t *testing.T) {
	rule := chaos.Rule{Point: chaos.ExploreWorker, Fault: chaos.Cancel, Rate: 0.1}
	inj := chaos.New(chaosSeed(rule, true, false, false, false, false, false, true, false, false, false), rule)
	m, solves := runChaosJob(t, inj)
	wantJobDone(t, m)
	if st := inj.Snapshot()[chaos.ExploreWorker]; st.Cancels != 2 || st.Armed != 10 {
		t.Fatalf("explore.worker armed %d times with %d cancels, want 10 and 2", st.Armed, st.Cancels)
	}
	if solves != 4 {
		t.Fatalf("the solver ran %d times for 4 points", solves)
	}
}
