//go:build !race

// The race detector's shadow memory and instrumentation allocations
// would count against the live heap, so the bound is checked only in
// normal builds.

package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cactid/internal/explore"
)

// TestSweepJobHeapBounded: finished jobs stop pinning their results.
// 300 jobs of 32 fresh points each run one after another under a
// 256-point budget for resident finished jobs, with tier 0 bounded at
// 64 entries and no store, so nothing else grows with the job count.
// The live heap after the last job stays within 1 MB of its value
// after the 30th; keeping every finished job, it grew by about 10 MB.
func TestSweepJobHeapBounded(t *testing.T) {
	const jobs, warm, points = 300, 30, 32
	const slack = 1 << 20
	_, solver := persistableSolver()
	s := mustServer(t, config{solver: solver, maxPoints: 256, cacheBound: 64})
	cache := false
	var atWarm uint64
	for i := 0; i < jobs; i++ {
		req := explore.SweepRequest{Base: explore.SpecRequest{RAM: "sram", BlockBytes: 64, Cache: &cache}}
		for k := 0; k < points; k++ {
			req.Capacities = append(req.Capacities, fmt.Sprintf("%dKB", i*points+k+1))
		}
		j := s.jobs.submit(req, points, 0)
		if j == nil {
			t.Fatal("submit refused with no job running")
		}
		if rec := waitJob(t, j); rec.State != jobDone || rec.Cursor != points {
			t.Fatalf("job %d ended %s with %d of %d points: %s", i, rec.State, rec.Cursor, points, rec.Error)
		}
		if i+1 == warm {
			atWarm = liveHeap()
		}
	}
	end := liveHeap()
	st := s.jobs.stats()
	t.Logf("live heap %d B after job %d, %d B after job %d; %d jobs resident holding %d points, %d evicted",
		atWarm, warm, end, jobs, st.Resident, st.ResidentPoints, st.Evicted)
	if grew := int64(end) - int64(atWarm); grew > slack {
		t.Errorf("live heap grew %d B from job %d to job %d, slack %d", grew, warm, jobs, slack)
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// waitJob waits for a job to leave the running state.
func waitJob(t *testing.T, j *job) jobRecord {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		rec, _, updated := j.view()
		if rec.State != jobRunning {
			return rec
		}
		select {
		case <-updated:
		case <-deadline:
			t.Fatalf("job %s still running", rec.ID)
		}
	}
}
