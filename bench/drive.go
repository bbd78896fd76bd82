package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"cactid/internal/explore"
	"cactid/internal/fabric"
)

// clients is the closed loop's size and every server's GOMAXPROCS:
// the two-core machine the ledger is recorded on. Architects' scripts
// wait on each answer, so each client sends its next request only
// after the previous one completes.
const clients = 2

// newClient returns an HTTP client that never holds more than
// `clients` connections to one server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// topology is the set of servers one timed phase talks to.
type topology struct {
	front   *proc   // receives every request
	procs   []*proc // every server of the phase
	workers []*proc // cluster workers (nil otherwise)
}

func (t *topology) kill(f *fleet) {
	for _, p := range t.procs {
		f.forget(p)
	}
}

// startTopology starts the workload's servers and returns the time
// from the first exec to readiness: /healthz on one server, or a
// coordinator whose /v1/fabric reports both workers healthy.
func (f *fleet) startTopology(ctx context.Context, c *http.Client, w *workload, storeDir string) (*topology, time.Duration, error) {
	if !w.cluster {
		args := w.serverFlags()
		if storeDir != "" {
			args = append(append([]string(nil), args...), "-store", storeDir)
		}
		p, d, err := f.startReady(ctx, c, clients, args...)
		if err != nil {
			return nil, 0, err
		}
		return &topology{front: p, procs: []*proc{p}}, d, nil
	}
	for attempt := 0; ; attempt++ {
		t, d, err := f.startCluster(ctx, c, w)
		if err == nil || !errors.Is(err, errExited) || attempt == 2 {
			return t, d, err
		}
	}
}

func (f *fleet) startCluster(ctx context.Context, c *http.Client, w *workload) (*topology, time.Duration, error) {
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		ports[i] = p
	}
	t := &topology{}
	t0 := time.Now()
	var urls []string
	for _, port := range ports[1:] {
		p, err := f.spawn(port, 1, w.serverFlags()...)
		if err != nil {
			t.kill(f)
			return nil, 0, err
		}
		t.workers = append(t.workers, p)
		t.procs = append(t.procs, p)
		urls = append(urls, p.url)
	}
	coord, err := f.spawn(ports[0], 1, "-coordinator", "-worker-nodes", strings.Join(urls, ","))
	if err != nil {
		t.kill(f)
		return nil, 0, err
	}
	t.front = coord
	t.procs = append(t.procs, coord)
	for _, p := range t.workers {
		if err := waitReady(ctx, c, p, "/healthz", nil); err != nil {
			t.kill(f)
			return nil, 0, err
		}
	}
	healthy := func(b []byte) bool {
		var v struct {
			Fabric fabric.Status `json:"fabric"`
		}
		return json.Unmarshal(b, &v) == nil && v.Fabric.HealthyWorkers == len(t.workers)
	}
	if err := waitReady(ctx, c, coord, "/v1/fabric", healthy); err != nil {
		t.kill(f)
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

// procSnap is one server's /metrics and /proc counters.
type procSnap struct {
	totalAlloc float64
	heapAlloc  float64
	gcFraction float64
	latSum     float64 // seconds spent inside /v1 handlers
	cpu        float64
}

// snapshot is the counter state the timed phase's deltas come from.
type snapshot struct {
	eng        explore.Stats
	fab        fabric.Status
	storeBytes int64
	corrupt    int64
	procs      []procSnap
}

type metricsBody struct {
	Runtime struct {
		HeapAlloc     float64 `json:"heap_alloc"`
		TotalAlloc    float64 `json:"total_alloc"`
		GCCPUFraction float64 `json:"gc_cpu_fraction"`
	} `json:"runtime"`
	Latency struct {
		Sum float64 `json:"sum"`
	} `json:"request_latency_seconds"`
	Store *struct {
		BytesOnDisk  int64 `json:"bytes_on_disk"`
		CorruptReads int64 `json:"corrupt_reads"`
	} `json:"store"`
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	body, status, err := get(ctx, c, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(body, v)
}

func takeSnapshot(ctx context.Context, c *http.Client, t *topology) (snapshot, error) {
	var s snapshot
	if t.workers != nil {
		var v struct {
			Fabric  fabric.Status `json:"fabric"`
			Cluster explore.Stats `json:"cluster_stats"`
		}
		if err := getJSON(ctx, c, t.front.url+"/v1/fabric", &v); err != nil {
			return s, err
		}
		s.eng, s.fab = v.Cluster, v.Fabric
	} else if err := getJSON(ctx, c, t.front.url+"/v1/stats", &s.eng); err != nil {
		return s, err
	}
	for _, p := range t.procs {
		var m metricsBody
		if err := getJSON(ctx, c, p.url+"/metrics", &m); err != nil {
			return s, err
		}
		cpu, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, procSnap{m.Runtime.TotalAlloc, m.Runtime.HeapAlloc,
			m.Runtime.GCCPUFraction, m.Latency.Sum, cpu})
		if m.Store != nil {
			s.storeBytes += m.Store.BytesOnDisk
			s.corrupt += m.Store.CorruptReads
		}
	}
	return s, nil
}

// sample is one answered (or failed) request of the timed phase.
type sample struct {
	pos    int // position in the phase's issued requests
	lat    time.Duration
	first  time.Duration // jobs: submit to the first streamed result
	status int
	bytes  int64
	err    error  // transport failure
	body   []byte // kept for the oracle: sampled, or not 2xx
}

// keepBody is the seeded 1-in-16 body sample the oracle checks.
func keepBody(seed uint64, idx int) bool {
	return splitmix64(seed^uint64(idx)*0x9e3779b97f4a7c15)%16 == 0
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// phase is the outcome of one closed-loop run.
type phase struct {
	issued   []request
	samples  []sample
	wall     time.Duration
	wsSolves int // store-churn: issued solves of a working-set spec
}

// drive runs the closed loop: `clients` goroutines each take the next
// request in sequence, send it and read the whole answer, until n
// requests have been sent, the plan runs out of fresh inputs, or limit
// has passed. Request i is the same for a seed whichever client sends
// it.
func drive(ctx context.Context, c *http.Client, url string, next func() (request, bool), n int, limit time.Duration, keep func(int) bool) phase {
	var (
		mu    sync.Mutex
		ph    phase
		wg    sync.WaitGroup
		start = time.Now()
		end   = start.Add(limit)
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil {
				mu.Lock()
				if len(ph.issued) == n || time.Now().After(end) {
					mu.Unlock()
					break
				}
				req, ok := next()
				pos := len(ph.issued)
				if ok {
					ph.issued = append(ph.issued, req)
				}
				mu.Unlock()
				if !ok {
					break
				}
				s := send(ctx, c, url, req, keep(req.idx))
				s.pos = pos
				mine = append(mine, s)
			}
			mu.Lock()
			ph.samples = append(ph.samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// send performs one request and reads its whole answer. Bodies are
// kept only when sampled or not 2xx; nothing is parsed except the job
// id of a 202.
func send(ctx context.Context, c *http.Client, url string, r request, keep bool) sample {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	var s sample
	t0 := time.Now()
	// A job's submit answer is read for its id; its stream is the answer.
	status, body, n, err := post(ctx, c, url+r.path(), r.body, keep || r.kind == kJob)
	s.status, s.bytes, s.err, s.body = status, n, err, body
	if err == nil && r.kind == kJob && status == http.StatusAccepted {
		s = stream(ctx, c, url, s, body, keep, t0)
	}
	s.lat = time.Since(t0)
	return s
}

func post(ctx context.Context, c *http.Client, url string, body []byte, keep bool) (int, []byte, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if keep || resp.StatusCode/100 != 2 {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, int64(len(b)), err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, n, err
}

// jobID extracts "id" from a job submit answer by byte search.
func jobID(body []byte) (string, bool) {
	_, rest, ok := bytes.Cut(body, []byte(`"id"`))
	if !ok {
		return "", false
	}
	_, rest, ok = bytes.Cut(rest, []byte(`"`))
	if !ok {
		return "", false
	}
	id, _, ok := bytes.Cut(rest, []byte(`"`))
	return string(id), ok && len(id) > 0
}

// stream follows a submitted job's NDJSON stream to its terminal line
// and records when the first result arrived.
func stream(ctx context.Context, c *http.Client, url string, s sample, submit []byte, keep bool, t0 time.Time) sample {
	id, ok := jobID(submit)
	if !ok {
		s.err = fmt.Errorf("job submit answer has no id: %.200s", submit)
		return s
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/sweep-jobs/"+id+"/stream", nil)
	if err != nil {
		s.err = err
		return s
	}
	resp, err := c.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	s.body = nil
	br := bufio.NewReader(resp.Body)
	var kept bytes.Buffer
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if s.first == 0 {
				s.first = time.Since(t0)
			}
			s.bytes += int64(len(line))
			if keep || resp.StatusCode != http.StatusOK {
				kept.Write(line)
			}
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = err
			}
			break
		}
	}
	if keep || resp.StatusCode != http.StatusOK {
		s.body = kept.Bytes()
	}
	return s
}

// sendAll sends a list of untimed requests on the closed loop and
// fails on any answer that is not 200.
func sendAll(ctx context.Context, c *http.Client, url string, reqs []request) error {
	i := 0
	next := func() (request, bool) {
		if i == len(reqs) {
			return request{}, false
		}
		i++
		return reqs[i-1], true
	}
	ph := drive(ctx, c, url, next, len(reqs), time.Hour, func(int) bool { return false })
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range ph.samples {
		if s.err != nil || s.status != http.StatusOK {
			return fmt.Errorf("warm-up request failed: status %d: %v %s", s.status, s.err, s.body)
		}
	}
	return nil
}
