package main

import (
	"bytes"
	"math"
	"testing"
)

func take(t *testing.T, p *plan, n int) []request {
	t.Helper()
	out := make([]request, 0, n)
	for len(out) < n {
		r, ok := p.next()
		if !ok {
			t.Fatalf("plan ran out after %d requests", len(out))
		}
		out = append(out, r)
	}
	return out
}

// fingerprints decodes a request the way the server does and returns
// its specs' fingerprints.
func fingerprints(t *testing.T, r request) []string {
	t.Helper()
	d, err := decodeRequest(r)
	if err != nil {
		t.Fatalf("request %d does not decode: %v", r.idx, err)
	}
	fps := make([]string, len(d.specs))
	for i, s := range d.specs {
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("request %d: %v", r.idx, err)
		}
		fps[i] = fp
	}
	return fps
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := w.plan(w, 5), w.plan(w, 5), w.plan(w, 6)
		ra, rb, rc := take(t, a, 300), take(t, b, 300), take(t, c, 300)
		differs := false
		for i := range ra {
			if !bytes.Equal(ra[i].body, rb[i].body) || ra[i].path() != rb[i].path() || ra[i].points != rb[i].points || ra[i].idx != i {
				t.Fatalf("%s: request %d differs between two plans of seed 5", w.name, i)
			}
			differs = differs || !bytes.Equal(ra[i].body, rc[i].body)
		}
		if !differs {
			t.Errorf("%s: seeds 5 and 6 generate the same requests", w.name)
		}
		for i := range a.warm {
			if !bytes.Equal(a.warm[i].body, b.warm[i].body) {
				t.Fatalf("%s: warm-up request %d differs between two plans of seed 5", w.name, i)
			}
		}
	}
}

func TestDSEColdNeverRepeatsAFingerprint(t *testing.T) {
	w, _ := workloadByName("dse-cold")
	seen := map[string]bool{}
	counts := map[kind]int{}
	for _, r := range take(t, w.plan(w, 1), 3000) {
		counts[r.kind]++
		fps := fingerprints(t, r)
		if len(fps) != r.points {
			t.Fatalf("request %d answers %d points, plan says %d", r.idx, len(fps), r.points)
		}
		if r.kind != kSolve && (len(fps) < 8 || len(fps) > 48) {
			t.Fatalf("request %d is a %d-point grid, want 8-48", r.idx, len(fps))
		}
		for _, fp := range fps {
			if seen[fp] {
				t.Fatalf("request %d repeats fingerprint %s", r.idx, fp)
			}
			seen[fp] = true
		}
	}
	for k, want := range map[kind]float64{kSweep: 0.75, kPareto: 0.15, kSolve: 0.10} {
		if got := float64(counts[k]) / 3000; math.Abs(got-want) > 0.03 {
			t.Errorf("%s share %.3f, want %.2f", k, got, want)
		}
	}
}

func workingSetOf(t *testing.T, p *plan) map[string]bool {
	ws := map[string]bool{}
	for _, r := range p.warm {
		for _, fp := range fingerprints(t, r) {
			ws[fp] = true
		}
	}
	return ws
}

func TestRepeatHotStaysInsideWorkingSet(t *testing.T) {
	w, _ := workloadByName("repeat-hot")
	p := w.plan(w, 1)
	ws := workingSetOf(t, p)
	if len(ws) != 2048 {
		t.Fatalf("working set has %d distinct specs, want 2048", len(ws))
	}
	counts, csv := map[kind]int{}, 0
	for _, r := range take(t, p, 4000) {
		counts[r.kind]++
		if r.csv {
			csv++
		}
		fps := fingerprints(t, r)
		if r.kind == kSweep && len(fps) != 64 {
			t.Fatalf("request %d sweeps %d points, want a 64-point working-set grid", r.idx, len(fps))
		}
		for _, fp := range fps {
			if !ws[fp] {
				t.Fatalf("request %d (%s) asks for a spec outside the working set", r.idx, r.kind)
			}
		}
	}
	if got := float64(csv) / float64(counts[kSweep]); math.Abs(got-0.2) > 0.04 {
		t.Errorf("CSV share of sweeps %.3f, want 0.2", got)
	}
	if got := float64(counts[kSolve]) / 4000; math.Abs(got-0.6) > 0.03 {
		t.Errorf("solve share %.3f, want 0.6", got)
	}
}

func TestStoreChurnShareOfNewSpecs(t *testing.T) {
	w, _ := workloadByName("store-churn")
	p := w.plan(w, 1)
	ws := workingSetOf(t, p)
	if len(ws) != 8192 || len(ws) < 8*w.cacheEntries {
		t.Fatalf("working set has %d specs, want 8192, 8x the %d-entry tier 0", len(ws), w.cacheEntries)
	}
	const n = 5000
	fresh, wsSolves, jobs := 0, 0, 0
	seen := map[string]bool{}
	for _, r := range take(t, p, n) {
		fps := fingerprints(t, r)
		switch r.kind {
		case kSolve:
			if ws[fps[0]] {
				wsSolves++
				continue
			}
			if seen[fps[0]] {
				t.Fatalf("request %d repeats a new spec", r.idx)
			}
			seen[fps[0]] = true
			fresh++
		case kJob:
			jobs++
			resident := 0
			for _, fp := range fps {
				if ws[fp] {
					resident++
				}
			}
			if len(fps) != 32 || resident != 16 {
				t.Fatalf("job %d has %d points, %d resident; want 32 and 16", r.idx, len(fps), resident)
			}
		default:
			t.Fatalf("unexpected %s request", r.kind)
		}
	}
	if got := float64(fresh) / n; math.Abs(got-0.2) > 0.02 {
		t.Errorf("new-spec share %.3f, want 0.2", got)
	}
	if got := float64(jobs) / n; math.Abs(got-0.1) > 0.02 {
		t.Errorf("job share %.3f, want 0.1", got)
	}
	if wsSolves != p.wsSolves() {
		t.Errorf("plan counted %d working-set solves, found %d", p.wsSolves(), wsSolves)
	}
}

func TestClusterSweepGrids(t *testing.T) {
	w, _ := workloadByName("cluster-sweep")
	grids := map[string]int{}
	solves, repeats, sweeps := 0, 0, 0
	for _, r := range take(t, w.plan(w, 1), 2000) {
		if r.kind == kSolve {
			solves++
			continue
		}
		sweeps++
		if r.points != 128 {
			t.Fatalf("request %d sweeps %d points, want 128", r.idx, r.points)
		}
		key := string(r.body)
		if grids[key] > 0 {
			repeats++
		}
		grids[key]++
	}
	if got := float64(repeats) / float64(sweeps); math.Abs(got-0.5) > 0.05 {
		t.Errorf("repeat share of sweeps %.3f, want 0.5", got)
	}
	if got := float64(solves) / 2000; math.Abs(got-0.33) > 0.03 {
		t.Errorf("solve share %.3f, want 0.33", got)
	}
}
