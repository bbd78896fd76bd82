package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
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
// job whose request no longer expands to Points and Skipped. Records
// already on disk must keep decoding to the same values
// (TestSweepJobRecordParentBytes).
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
// chunks complete, and rec.Cursor is its length (a finished job read
// back without its results has only the record); updated is a
// broadcast channel, closed and replaced on every append, so any
// number of streamers can wait for "more results or done" without
// polling.
type job struct {
	mu      sync.Mutex
	rec     jobRecord        // guarded by mu
	results []explore.Result // guarded by mu; completed prefix, in grid order
	updated chan struct{}    // guarded by mu (the field; receivers hold a copy)
}

// view returns the job's record, its completed results and a channel
// that closes on the next change. The results slice is shared, not
// copied: results only grow by append, so the elements it covers never
// change.
func (j *job) view() (jobRecord, []explore.Result, chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec, j.results, j.updated
}

func (j *job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// jobManager owns the sweep jobs: submission, background execution
// with durable checkpoints, resume of interrupted jobs on server
// start, and the memory finished jobs hold.
//
// Job workers run outside the admission gate — a long sweep must not
// starve interactive /v1 traffic of its slots — so the manager applies
// the gate's -max-inflight bound to running jobs itself: submit refuses
// a job beyond it, and a revived job beyond it waits in a queue for
// the next free slot. A finished job
// stays in memory only while the finished jobs resident with it hold
// at most -max-points results; older ones are evicted and, with a
// store, read back from their durable record when a client asks. A
// read-back that re-sweeps holds an admission slot while it runs.
type jobManager struct {
	// sweep is the solve path for job chunks: the local engine's Sweep
	// in worker mode, the fabric coordinator's distributed sweep in
	// coordinator mode. Both share the contract that results come back
	// in input order with chunk-relative indices, canceled tails marked
	// with the context error.
	sweep func(context.Context, []core.Spec) []explore.Result
	// acquire is the server's admission gate (server.acquire); a
	// read-back's re-sweep runs inside one of its slots.
	acquire         func(context.Context) (func(), error)
	st              *store.Store // nil: jobs run without durability
	checkpointEvery int
	maxRunning      int // jobs that may run at once (-max-inflight)
	maxResident     int // results the resident finished jobs may hold together (-max-points)

	ctx    context.Context // canceled on server drain
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu; every running or queued job and the resident finished ones
	queued   []*job          // guarded by mu; revived jobs waiting for a running slot, oldest first
	finished []residentJob   // guarded by mu; the finished jobs in jobs, oldest first
	// residentPoints is what finished holds, each job counting as at
	// least one.
	residentPoints int // guarded by mu

	running   atomic.Int64 // jobs whose worker is sweeping; raised under mu
	submitted atomic.Int64
	completed atomic.Int64
	resumed   atomic.Int64
	evicted   atomic.Int64
	readBacks atomic.Int64
	wg        sync.WaitGroup
}

// residentJob is a finished job's place in the eviction order.
type residentJob struct {
	id     string
	points int
}

func newJobManager(sweep func(context.Context, []core.Spec) []explore.Result,
	acquire func(context.Context) (func(), error), st *store.Store, cfg config) *jobManager {
	checkpointEvery := cfg.checkpointEvery
	if checkpointEvery <= 0 {
		checkpointEvery = 32
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{
		sweep: sweep, acquire: acquire, st: st,
		checkpointEvery: checkpointEvery,
		maxRunning:      cfg.maxInFlight,
		maxResident:     cfg.maxPoints,
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

// submit registers a new job and starts its worker, or returns nil
// while maxRunning jobs are running or a revived job waits for a slot.
// The request must already be validated (grid compiles, point count
// within bounds).
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
	if m.running.Load() >= int64(m.maxRunning) || len(m.queued) > 0 {
		m.mu.Unlock()
		return nil
	}
	m.running.Add(1)
	m.jobs[id] = j
	m.mu.Unlock()
	m.submitted.Add(1)
	m.checkpoint(j.record())
	m.start(j)
	return j
}

// start runs a registered job's worker; the caller has counted it in
// running.
func (m *jobManager) start(j *job) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		state, err := m.run(j)
		// Before the terminal state is visible, so a client that saw
		// its job finish can submit the next one.
		m.running.Add(-1)
		if state != jobRunning {
			m.settle(j, state, err)
		}
	}()
}

// get returns a job by id: a resident one, a running one revived from
// its checkpoint, or a finished one read back from its durable record
// (see readBack). It returns nil, nil when there is no such job: never
// submitted, or finished and evicted on a server without a store.
func (m *jobManager) get(ctx context.Context, id string, withResults bool) (*job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j != nil {
		return j, nil
	}
	rec, ok := m.loadRecord(ctx, id)
	switch {
	case !ok:
		return nil, nil
	case rec.State == jobRunning:
		// A job a restart interrupted that resumeAll did not revive
		// (its record's read faulted, say): the reader resumes it.
		return m.revive(rec), nil
	}
	return m.readBack(ctx, rec, withResults)
}

// readBack rebuilds a finished job that has left memory from its
// record. The record alone answers a poll without results and a failed
// job. A done job's results come from re-sweeping its grid through the
// node's solve path on the reader's goroutine, under the reader's
// context and inside an admission slot: its points come out of tier 0
// or tier 1 rather than the solver, marked cached. A reader the gate
// refuses gets the refusal and is not counted as a read-back. The
// rebuilt job, if no point was cut off, becomes the newest resident
// finished job. Nothing is written to the store: the job answers done
// from its first byte, keeps the record's resumed_from, and is not
// counted as resumed.
func (m *jobManager) readBack(ctx context.Context, rec jobRecord, withResults bool) (*job, error) {
	if rec.State != jobDone || !withResults {
		m.readBacks.Add(1)
		return &job{rec: rec, updated: make(chan struct{})}, nil
	}
	release, err := m.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	m.readBacks.Add(1)
	specs, err := specsOf(rec)
	if err != nil {
		// The grid no longer reproduces the job's points; say so
		// without touching the record.
		rec.State, rec.Error = jobFailed, err.Error()
		return &job{rec: rec, updated: make(chan struct{})}, nil
	}
	results := m.sweep(ctx, specs)
	if i := uncanceled(results); i < len(results) {
		return nil, results[i].Err
	}
	return m.retire(&job{rec: rec, results: results, updated: make(chan struct{})}), nil
}

// revive re-registers an interrupted job, so polls and streams find
// it at once, and restarts its sweep from point 0 — completed points
// replay out of the durable solution tier with zero solver work, so
// this resumes "from the checkpoint" in cost terms while rebuilding
// the full in-memory result prefix that polls and streams serve. The
// job starts now if a running slot is free and no revived job waits
// for one, and otherwise queues (see settle). Idempotent per id within
// one process.
func (m *jobManager) revive(rec jobRecord) *job {
	m.mu.Lock()
	if existing := m.jobs[rec.ID]; existing != nil {
		m.mu.Unlock()
		return existing
	}
	if rec.Cursor > 0 {
		rec.ResumedFrom = rec.Cursor
	}
	rec.Cursor = 0
	j := &job{rec: rec, updated: make(chan struct{})}
	m.jobs[rec.ID] = j
	run := len(m.queued) == 0 && m.running.Load() < int64(m.maxRunning)
	if run {
		m.running.Add(1)
	} else {
		m.queued = append(m.queued, j)
	}
	m.mu.Unlock()
	m.resumed.Add(1)
	if run {
		m.start(j)
	}
	return j
}

// dequeue takes the oldest queued job into a free running slot,
// counting it in running, or returns nil when none waits, no slot is
// free or the manager is draining.
func (m *jobManager) dequeue() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queued) == 0 || m.running.Load() >= int64(m.maxRunning) || m.ctx.Err() != nil {
		return nil
	}
	j := m.queued[0]
	m.queued[0] = nil
	m.queued = m.queued[1:]
	m.running.Add(1)
	return j
}

// resumeAll revives every interrupted job found in the store; called
// once at server start. Finished jobs are left on disk and read back
// when a client asks for them.
func (m *jobManager) resumeAll() {
	if m.st == nil {
		return
	}
	for _, key := range m.st.Keys(jobKeyPrefix) {
		rec, ok := m.loadRecord(m.ctx, key[len(jobKeyPrefix):])
		if ok && rec.State == jobRunning {
			m.revive(rec)
		}
	}
}

func (m *jobManager) loadRecord(ctx context.Context, id string) (jobRecord, bool) {
	if m.st == nil {
		return jobRecord{}, false
	}
	val, ok, err := m.st.Get(ctx, jobKeyPrefix+id)
	if err != nil || !ok {
		return jobRecord{}, false
	}
	var rec jobRecord
	if json.Unmarshal(val, &rec) != nil || rec.ID != id {
		return jobRecord{}, false
	}
	return rec, true
}

// checkpoint persists a job's record; a write fault costs resume
// granularity, not correctness.
func (m *jobManager) checkpoint(rec jobRecord) {
	if m.st == nil {
		return
	}
	val, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_ = m.st.Put(m.ctx, jobKeyPrefix+rec.ID, val)
}

// specsOf expands a job's grid, failing when it no longer yields the
// points and skipped count the record holds (an axis of a persisted
// request decoded empty, say).
func specsOf(rec jobRecord) ([]core.Spec, error) {
	grid, err := rec.Request.Grid()
	if err != nil {
		return nil, err
	}
	specs, skipped := grid.Expand()
	if len(specs) != rec.Points || skipped != rec.Skipped {
		return nil, fmt.Errorf("sweep job grid expands to %d points (%d skipped), checkpoint recorded %d (%d skipped)",
			len(specs), skipped, rec.Points, rec.Skipped)
	}
	return specs, nil
}

// uncanceled returns the length of the results' prefix untouched by
// cancellation: a canceled point says nothing about its spec.
func uncanceled(results []explore.Result) int {
	for i, r := range results {
		if explore.Canceled(r.Err) {
			return i
		}
	}
	return len(results)
}

// keep appends the prefix of chunk untouched by cancellation to j's
// results, chunk[0] being grid point from, and returns its length: a
// canceled point must not be recorded (resume would otherwise serve it
// as a real failure).
func (j *job) keep(chunk []explore.Result, from, points int) int {
	good := uncanceled(chunk)
	j.mu.Lock()
	if j.results == nil {
		// Sized to the job, so a finished job holds no spare
		// capacity beyond the points it counts for.
		j.results = make([]explore.Result, 0, points)
	}
	for i := 0; i < good; i++ {
		r := chunk[i]
		r.Index = from + i // chunk-relative -> grid-relative
		j.results = append(j.results, r)
	}
	j.rec.Cursor = len(j.results)
	close(j.updated) // broadcast "more results"
	j.updated = make(chan struct{})
	j.mu.Unlock()
	return good
}

// run executes the job's sweep in checkpointed chunks and reports how
// it ended: done, failed, or still running when a drain stopped it at a
// chunk boundary or cut a chunk short. A stopped job's checkpoint holds
// its done prefix, which is exactly what resumeAll looks for. A point
// canceled while the manager is live was not cut off by a drain (an
// injected fault cancels one, say): the rest of its chunk is swept
// again from that point, and the job fails only when the same point is
// canceled again, so every point gets one retry.
func (m *jobManager) run(j *job) (string, error) {
	specs, err := specsOf(j.record())
	if err != nil {
		return jobFailed, err
	}
	for cur := 0; cur < len(specs); {
		if m.ctx.Err() != nil {
			return jobRunning, nil // interrupted: checkpoint already reflects the done prefix
		}
		end := min(cur+m.checkpointEvery, len(specs))
		done := cur + j.keep(m.sweep(m.ctx, specs[cur:end]), cur, len(specs))
		for done < end && m.ctx.Err() == nil {
			chunk := m.sweep(m.ctx, specs[done:end])
			retried := done + j.keep(chunk, done, len(specs))
			if retried == done && m.ctx.Err() == nil {
				return jobFailed, fmt.Errorf("sweep job point %d canceled twice: %w", done, chunk[0].Err)
			}
			done = retried
		}
		if done < end {
			m.checkpoint(j.record())
			return jobRunning, nil // a drain cut the chunk; still "running" for resume
		}
		cur = end
		// The chunk that completes the grid is recorded by settle's
		// terminal record alone: one write per state change.
		if cur < len(specs) {
			m.checkpoint(j.record())
		}
	}
	return jobDone, nil
}

// settle ends a job as done or failed. The terminal record is written
// and the job retired before any client can see the state: an evicted
// job reads back from that record, and a client that saw its job
// finish sees the eviction it caused. The job's running slot, freed
// before settle, then goes to the oldest queued job.
func (m *jobManager) settle(j *job, state string, err error) {
	rec := j.record()
	rec.State = state
	if err != nil {
		rec.Error = err.Error()
	}
	m.checkpoint(rec)
	if state == jobDone {
		m.completed.Add(1)
	}
	m.retire(j)
	j.mu.Lock()
	j.rec = rec
	close(j.updated) // broadcast terminal state
	j.updated = make(chan struct{})
	j.mu.Unlock()
	if next := m.dequeue(); next != nil {
		m.start(next)
	}
}

// retire makes a finished job the newest resident one, then evicts the
// oldest while the resident finished jobs hold more than maxResident
// results. Each job counts as at least one, and the newest always
// stays. Eviction only deletes the map entry: a stream holding the
// job finishes from it. retire returns the job resident under j's id,
// which is another one when a concurrent read-back registered it
// first.
func (m *jobManager) retire(j *job) *job {
	rec, results, _ := j.view()
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.jobs[rec.ID]; cur != nil && cur != j {
		return cur
	}
	m.jobs[rec.ID] = j
	points := max(len(results), 1)
	m.finished = append(m.finished, residentJob{rec.ID, points})
	m.residentPoints += points
	for m.residentPoints > m.maxResident && len(m.finished) > 1 {
		old := m.finished[0]
		m.finished[0] = residentJob{}
		m.finished = m.finished[1:]
		delete(m.jobs, old.id)
		m.residentPoints -= old.points
		m.evicted.Add(1)
	}
	return j
}

// jobStats is the /metrics sweep_jobs block.
type jobStats struct {
	Submitted      int64 `json:"submitted"`
	Completed      int64 `json:"completed"`
	Resumed        int64 `json:"resumed"`
	Active         int64 `json:"active"`          // jobs running now
	Resident       int   `json:"resident"`        // finished jobs held in memory
	ResidentPoints int   `json:"resident_points"` // their results, each job counting as at least one
	Evicted        int64 `json:"evicted"`         // finished jobs dropped from memory
	ReadBack       int64 `json:"read_back"`       // polls and streams of a finished job that had left memory
}

func (m *jobManager) stats() jobStats {
	m.mu.Lock()
	resident, points := len(m.finished), m.residentPoints
	m.mu.Unlock()
	return jobStats{
		Submitted:      m.submitted.Load(),
		Completed:      m.completed.Load(),
		Resumed:        m.resumed.Load(),
		Active:         m.running.Load(),
		Resident:       resident,
		ResidentPoints: points,
		Evicted:        m.evicted.Load(),
		ReadBack:       m.readBacks.Load(),
	}
}
