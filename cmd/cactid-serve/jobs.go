package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/store"
)

// jobKeyPrefix namespaces sweep-job checkpoint records in the durable
// store, away from the "s:<version>:" solution records.
const jobKeyPrefix = "j:"

// jobRecord is the durable face of a sweep job: everything a
// restarted server needs to resume it. The grid request (not the
// expanded spec list) is persisted — expansion is deterministic, so
// replaying it reproduces the identical point order, and run fails a
// job whose request no longer expands to Points and Skipped.
//
//wire:boundary
type jobRecord struct {
	ID           string               `json:"id"`
	Request      explore.SweepRequest `json:"request"`
	ModelVersion int                  `json:"model_version"`
	Points       int                  `json:"points"`  // grid points after expansion
	Skipped      int                  `json:"skipped"` // infeasible points the planner dropped
	Cursor       int                  `json:"cursor"`  // completed-result prefix length at last checkpoint
	State        string               `json:"state"`   // "running" | "done" | "failed"
	Error        string               `json:"error,omitempty"`
	ResumedFrom  int                  `json:"resumed_from,omitempty"` // checkpoint cursor this run resumed at
}

const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// job is one in-memory sweep job. results grows monotonically as
// chunks complete; updated is a broadcast channel, closed and
// replaced on every append, so any number of streamers can wait for
// "more results or done" without polling.
type job struct {
	mu      sync.Mutex
	rec     jobRecord        // guarded by mu
	results []explore.Result // guarded by mu; completed prefix, in grid order
	updated chan struct{}    // guarded by mu (the field; receivers hold a copy)
}

func (j *job) snapshot() (jobRecord, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec, len(j.results)
}

// wait returns the current result count, terminal state, and a
// channel that closes on the next change.
func (j *job) wait() (n int, terminal bool, ch chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.results), j.rec.State != jobRunning, j.updated
}

// resultAt copies one completed result.
func (j *job) resultAt(i int) explore.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results[i]
}

// jobManager owns the sweep jobs: submission, background execution
// with durable checkpoints, and resume of interrupted jobs on server
// start. Job workers run outside the admission gate — a long sweep
// must not starve interactive /v1 traffic of its slots; the engine's
// shared worker pool is the actual CPU bound.
type jobManager struct {
	// sweep is the solve path for job chunks: the local engine's Sweep
	// in worker mode, the fabric coordinator's distributed sweep in
	// coordinator mode. Both share the contract that results come back
	// in input order with chunk-relative indices, canceled tails marked
	// with the context error.
	sweep           func(context.Context, []core.Spec) []explore.Result
	st              *store.Store // nil: jobs run without durability
	checkpointEvery int

	ctx    context.Context // canceled on server drain
	cancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*job // guarded by mu

	submitted atomic.Int64
	completed atomic.Int64
	resumed   atomic.Int64
	wg        sync.WaitGroup
}

func newJobManager(sweep func(context.Context, []core.Spec) []explore.Result, st *store.Store, checkpointEvery int) *jobManager {
	if checkpointEvery <= 0 {
		checkpointEvery = 32
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{
		sweep: sweep, st: st,
		checkpointEvery: checkpointEvery,
		ctx:             ctx, cancel: cancel,
		jobs: make(map[string]*job),
	}
}

// drain stops the background workers at the next chunk boundary and
// waits for them; checkpoints already written keep their progress.
func (m *jobManager) drain() {
	m.cancel()
	m.wg.Wait()
}

func newJobID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// submit registers a new job and starts its worker. The request must
// already be validated (grid compiles, point count within bounds).
func (m *jobManager) submit(req explore.SweepRequest, points, skipped int) *job {
	id := newJobID()
	j := &job{
		rec: jobRecord{
			ID: id, Request: req, ModelVersion: core.ModelVersion,
			Points: points, Skipped: skipped, State: jobRunning,
		},
		updated: make(chan struct{}),
	}
	m.mu.Lock()
	m.jobs[id] = j
	m.mu.Unlock()
	m.submitted.Add(1)
	m.checkpoint(j)
	m.start(j)
	return j
}

func (m *jobManager) start(j *job) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.run(j)
	}()
}

// get returns a job by id, faulting it in from the durable store if
// this process has never seen it (a poll or stream hitting a
// restarted server before resume finished, or for a finished job
// whose results replay for free out of tier 1).
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j != nil {
		return j
	}
	rec, ok := m.loadRecord(id)
	if !ok {
		return nil
	}
	return m.revive(rec)
}

// revive re-registers a persisted job and restarts its sweep from
// point 0 — completed points replay out of the durable solution tier
// with zero solver work, so this resumes "from the checkpoint" in
// cost terms while rebuilding the full in-memory result prefix that
// polls and streams serve. Idempotent per id within one process.
func (m *jobManager) revive(rec jobRecord) *job {
	m.mu.Lock()
	if existing := m.jobs[rec.ID]; existing != nil {
		m.mu.Unlock()
		return existing
	}
	wasDone := rec.State == jobDone
	if rec.Cursor > 0 || wasDone {
		rec.ResumedFrom = rec.Cursor
	}
	rec.Cursor = 0
	rec.State = jobRunning
	rec.Error = ""
	j := &job{rec: rec, updated: make(chan struct{})}
	m.jobs[rec.ID] = j
	m.mu.Unlock()
	if !wasDone {
		m.resumed.Add(1)
	}
	m.start(j)
	return j
}

// resumeAll revives every interrupted job found in the store; called
// once at server start. Finished jobs are left on disk and revived
// lazily when a client asks for them.
func (m *jobManager) resumeAll() {
	if m.st == nil {
		return
	}
	for _, key := range m.st.Keys(jobKeyPrefix) {
		rec, ok := m.loadRecord(key[len(jobKeyPrefix):])
		if ok && rec.State == jobRunning {
			m.revive(rec)
		}
	}
}

func (m *jobManager) loadRecord(id string) (jobRecord, bool) {
	if m.st == nil {
		return jobRecord{}, false
	}
	val, ok, err := m.st.Get(m.ctx, jobKeyPrefix+id)
	if err != nil || !ok {
		return jobRecord{}, false
	}
	var rec jobRecord
	if json.Unmarshal(val, &rec) != nil || rec.ID != id {
		return jobRecord{}, false
	}
	return rec, true
}

// checkpoint persists the job's record; a write fault costs resume
// granularity, not correctness.
func (m *jobManager) checkpoint(j *job) {
	if m.st == nil {
		return
	}
	rec, _ := j.snapshot()
	val, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_ = m.st.Put(m.ctx, jobKeyPrefix+rec.ID, val)
}

// run executes the job's sweep in checkpointed chunks. A drain
// cancellation stops at the chunk boundary with the job still
// "running" on disk, which is exactly what resumeAll looks for.
func (m *jobManager) run(j *job) {
	rec, _ := j.snapshot()
	grid, err := rec.Request.Grid()
	if err != nil {
		m.fail(j, err)
		return
	}
	specs, skipped := grid.Expand()
	if len(specs) != rec.Points || skipped != rec.Skipped {
		// An axis of the persisted request decoded empty, say.
		m.fail(j, fmt.Errorf("sweep job grid expands to %d points (%d skipped), checkpoint recorded %d (%d skipped)",
			len(specs), skipped, rec.Points, rec.Skipped))
		return
	}
	for cur := 0; cur < len(specs); {
		if m.ctx.Err() != nil {
			return // interrupted: checkpoint already reflects the done prefix
		}
		end := cur + m.checkpointEvery
		if end > len(specs) {
			end = len(specs)
		}
		chunk := m.sweep(m.ctx, specs[cur:end])
		// Keep only the prefix untouched by cancellation: a canceled
		// point says nothing about its spec and must not be recorded
		// (resume would otherwise serve it as a real failure).
		good := 0
		for _, r := range chunk {
			if r.Err != nil && (errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)) {
				break
			}
			good++
		}
		j.mu.Lock()
		for i := 0; i < good; i++ {
			r := chunk[i]
			r.Index = cur + i // chunk-relative -> grid-relative
			j.results = append(j.results, r)
		}
		j.rec.Cursor = len(j.results)
		close(j.updated) // broadcast "more results"
		j.updated = make(chan struct{})
		j.mu.Unlock()
		m.checkpoint(j)
		if good < len(chunk) {
			return // canceled mid-chunk; still "running" for resume
		}
		cur = end
	}
	j.mu.Lock()
	j.rec.State = jobDone
	close(j.updated) // broadcast terminal state
	j.updated = make(chan struct{})
	j.mu.Unlock()
	m.completed.Add(1)
	m.checkpoint(j)
}

func (m *jobManager) fail(j *job, err error) {
	j.mu.Lock()
	j.rec.State = jobFailed
	j.rec.Error = err.Error()
	close(j.updated) // broadcast terminal state
	j.updated = make(chan struct{})
	j.mu.Unlock()
	m.checkpoint(j)
}

// jobStats is the /metrics sweep_jobs block.
type jobStats struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Resumed   int64 `json:"resumed"`
	Active    int   `json:"active"`
}

func (m *jobManager) stats() jobStats {
	m.mu.Lock()
	active := 0
	for _, j := range m.jobs {
		if rec, _ := j.snapshot(); rec.State == jobRunning {
			active++
		}
	}
	m.mu.Unlock()
	return jobStats{
		Submitted: m.submitted.Load(),
		Completed: m.completed.Load(),
		Resumed:   m.resumed.Load(),
		Active:    active,
	}
}
