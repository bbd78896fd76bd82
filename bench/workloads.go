package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"cactid/internal/explore"
	"cactid/internal/tech"
)

// kind is the endpoint class of one generated request.
type kind int

const (
	kSolve  kind = iota // POST /v1/solve
	kSweep              // POST /v1/sweep (JSON or ?format=csv)
	kPareto             // POST /v1/pareto
	kBatch              // POST /v1/solve-batch
	kJob                // POST /v1/sweep-jobs, then its NDJSON stream to the terminal line
)

func (k kind) String() string {
	return [...]string{"solve", "sweep", "pareto", "solve_batch", "job"}[k]
}

// single reports whether the request asks for one design point; the
// others are the "sweep" class of the latency metrics.
func (k kind) single() bool { return k == kSolve }

// request is one generated HTTP request. Bodies are encoded when the
// request is generated, so the timed loop does no JSON work.
type request struct {
	idx    int
	kind   kind
	csv    bool
	body   []byte
	points int // design points the answer covers
}

func (r request) path() string {
	switch r.kind {
	case kSolve:
		return "/v1/solve"
	case kSweep:
		if r.csv {
			return "/v1/sweep?format=csv"
		}
		return "/v1/sweep"
	case kPareto:
		return "/v1/pareto"
	case kBatch:
		return "/v1/solve-batch"
	}
	return "/v1/sweep-jobs"
}

// point is one design point, named the way the HTTP API names it.
type point struct {
	tech  string
	node  int
	ram   string
	capKB int64
	block int
	assoc int
	banks int
	mode  string
}

func capString(kb int64) string {
	if kb >= 1024 && kb%1024 == 0 {
		return fmt.Sprintf("%dMB", kb/1024)
	}
	return fmt.Sprintf("%dKB", kb)
}

func (p point) specRequest() explore.SpecRequest {
	return explore.SpecRequest{Technology: p.tech, NodeNM: p.node, RAM: p.ram,
		Capacity: capString(p.capKB), BlockBytes: p.block, Associativity: p.assoc,
		Banks: p.banks, Mode: p.mode}
}

// grid is a cross product of points: one base (technology, node, RAM
// type, block size) and a value list per swept axis.
type grid struct {
	tech   string
	node   int
	ram    string
	block  int
	modes  []string
	capsKB []int64
	assocs []int
	banks  []int
}

func (g grid) sweepRequest() explore.SweepRequest {
	caps := make([]string, len(g.capsKB))
	for i, c := range g.capsKB {
		caps[i] = capString(c)
	}
	return explore.SweepRequest{
		Base:            explore.SpecRequest{Technology: g.tech, NodeNM: g.node, RAM: g.ram, BlockBytes: g.block},
		Capacities:      caps,
		Associativities: g.assocs,
		Banks:           g.banks,
		Modes:           g.modes,
	}
}

// points lists the grid's points in explore.Grid.Expand order
// (capacities, associativities, banks, modes), before the feasibility
// filter.
func (g grid) points() []point {
	var out []point
	for _, c := range g.capsKB {
		for _, a := range g.assocs {
			for _, b := range g.banks {
				for _, m := range g.modes {
					out = append(out, point{g.tech, g.node, g.ram, c, g.block, a, b, m})
				}
			}
		}
	}
	return out
}

// expandedPoints is the number of points the server answers for the
// grid: Grid.Expand drops infeasible ones.
func expandedPoints(sr explore.SweepRequest) int {
	g, err := sr.Grid()
	if err != nil {
		panic(fmt.Sprintf("bench: generated grid does not compile: %v", err))
	}
	specs, _ := g.Expand()
	return len(specs)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encode request: %v", err))
	}
	return b
}

func solveRequest(p point) request {
	return request{kind: kSolve, body: mustJSON(p.specRequest()), points: 1}
}

func gridRequest(k kind, g grid, csv bool) request {
	sr := g.sweepRequest()
	return request{kind: k, csv: csv, body: mustJSON(sr), points: expandedPoints(sr)}
}

// batchRequest is the /v1/solve-batch body.
type batchRequest struct {
	Specs []explore.SpecRequest `json:"specs"`
}

func batchOf(ps []point) request {
	br := batchRequest{Specs: make([]explore.SpecRequest, len(ps))}
	for i, p := range ps {
		br.Specs[i] = p.specRequest()
	}
	return request{kind: kBatch, body: mustJSON(br), points: len(ps)}
}

// The spec space every workload draws from: every technology
// provider, the four ITRS nodes the paper projects, the three RAM
// types the ram axis accepts, and cache geometries from 16 KB to 64 MB.
var (
	nodes  = []int{90, 65, 45, 32}
	rams   = []string{"sram", "lp-dram", "comm-dram"}
	modes  = []string{"normal", "sequential", "fast"}
	allKB  = []int64{16, 32, 64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	assocs = []int{1, 2, 4, 8, 16}
	banks  = []int{1, 2, 4, 8}
)

// base is the fixed part of a grid; working sets and cluster grids
// are disjoint because no two of their grids share a base.
type base struct {
	tech  string
	node  int
	ram   string
	block int
	mode  string
}

// bases enumerates tech × node × ram × block × mode in a fixed order.
func bases(blocks []int) []base {
	var out []base
	for _, t := range tech.Providers() {
		for _, n := range nodes {
			for _, r := range rams {
				for _, b := range blocks {
					for _, m := range modes {
						out = append(out, base{t, n, r, b, m})
					}
				}
			}
		}
	}
	return out
}

// balanced reorders a seeded permutation so that any prefix cycles
// through the buckets key assigns (technology × RAM type), keeping the
// seeded order inside each bucket: runs of different seeds then send
// the same mix of cheap and costly designs.
func balanced(order []int, key func(int) int) []int {
	var buckets [][]int
	slot := map[int]int{}
	for _, i := range order {
		k := key(i)
		if _, ok := slot[k]; !ok {
			slot[k] = len(buckets)
			buckets = append(buckets, nil)
		}
		buckets[slot[k]] = append(buckets[slot[k]], i)
	}
	out := make([]int, 0, len(order))
	for len(out) < len(order) {
		for b := range buckets {
			if len(buckets[b]) > 0 {
				out = append(out, buckets[b][0])
				buckets[b] = buckets[b][1:]
			}
		}
	}
	return out
}

// techRAM is the bucket key of balanced.
func techRAM(provider, ram string) int {
	for i, t := range tech.Providers() {
		for j, r := range rams {
			if t == provider && r == ram {
				return i*len(rams) + j
			}
		}
	}
	return -1
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// pick returns k distinct elements of xs in their original order.
func pick[T any](r *rand.Rand, xs []T, k int) []T {
	idx := r.Perm(len(xs))[:k]
	keep := make([]bool, len(xs))
	for _, i := range idx {
		keep[i] = true
	}
	out := make([]T, 0, k)
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// wsCapBands split the working-set capacities (64 KB-64 MB) into four
// size bands; a working-set grid takes one capacity from each, so
// every seed's working set holds the same mix of small and large
// designs.
var wsCapBands = [][]int64{allKB[2:5], allKB[5:8], allKB[8:11], allKB[11:13]}

// wsGrid is a 64-point working-set grid: 4 capacities × 4
// associativities × 4 bank counts on one base, every point feasible.
func wsGrid(r *rand.Rand, b base) grid {
	caps := make([]int64, len(wsCapBands))
	for i, band := range wsCapBands {
		caps[i] = band[r.IntN(len(band))]
	}
	return grid{tech: b.tech, node: b.node, ram: b.ram, block: b.block, modes: []string{b.mode},
		capsKB: caps, assocs: pick(r, assocs, 4), banks: banks}
}

// plan is one run's request sequence for a seed.
type plan struct {
	// warm is sent before the timed phase and not measured: the
	// working set a hot workload's answers come from.
	warm []request
	// next yields the timed requests in order; false when the
	// workload has no fresh inputs left. drive serializes calls.
	next func() (request, bool)
	// wsSolves counts the requests next has returned that ask for a
	// working-set spec (store-churn's tier-1 invariant).
	wsSolves func() int
}

// workload is one traffic mix against one server topology.
type workload struct {
	name string
	// cacheEntries is the tier-0 bound of the servers (the workers,
	// for cluster-sweep) and of the replay.
	cacheEntries int
	// store: the warm requests prefill a durable store, the server is
	// then SIGKILLed, and every later start recovers a copy of it.
	store bool
	// cluster: a coordinator and two workers, each at GOMAXPROCS=1.
	cluster bool
	// rate is the workload's requests per second at the seed commit
	// on the two-core machine the ledger is recorded on: a run of
	// `seconds` sends rate*seconds timed requests, so every commit
	// answers the same requests and ends in the same server state.
	rate float64
	// sizes, overridden by tests to keep the smoke run short.
	wsGrids int
	plan    func(w *workload, seed uint64) *plan
}

// capFactor bounds a run of a much slower commit: the timed phase
// stops after capFactor times its nominal length.
const capFactor = 5

// serverFlags are the cactid-serve flags of every server in the timed
// phase (the workers, for cluster-sweep).
func (w *workload) serverFlags() []string {
	if w.cacheEntries == defaultCacheEntries {
		return nil
	}
	return []string{"-cache-entries", strconv.Itoa(w.cacheEntries)}
}

// requests is the timed request count of a run of length d.
func (w *workload) requests(d time.Duration) int {
	return max(1, int(w.rate*d.Seconds()+0.5))
}

// defaultCacheEntries is cactid-serve's tier-0 bound. One cached
// solve holds its whole evaluated design, about 40 KB, so the
// workloads that never hit tier 0 beyond a few thousand entries
// (dse-cold, and the cluster workers, whose repeats come from the
// latest 4096 grid points) bound it at 4096 to keep the machine's
// memory use small.
const defaultCacheEntries = 16384

func workloads() []*workload {
	return []*workload{
		// Fresh grids over every provider, node and geometry: the solver does
		// almost all the work, so caching and encoding changes should not move it.
		{
			name:         "dse-cold",
			rate:         180,
			cacheEntries: 4096,
			plan:         dseColdPlan,
		},
		// Repeat callers over a resident 2048-spec working set: fingerprint,
		// tier 0 and encoding dominate, and the solver does nothing.
		{
			name:         "repeat-hot",
			rate:         2400,
			cacheEntries: defaultCacheEntries,
			wsGrids:      32,
			plan:         repeatHotPlan,
		},
		// A working set 8x the tier-0 bound recovered from a crashed store:
		// tier-1 reads, solves with store writes and job checkpoints.
		{
			name:         "store-churn",
			rate:         1900,
			cacheEntries: 1024,
			store:        true,
			wsGrids:      128,
			plan:         storeChurnPlan,
		},
		// 128-point sweeps through a coordinator and two workers: the fabric
		// hop (dispatch, wire encoding, merge) on the critical path.
		{
			name:         "cluster-sweep",
			rate:         55,
			cacheEntries: 4096,
			cluster:      true,
			plan:         clusterSweepPlan,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// dse-cold tiles: every (tech, node, ram, block) base crossed with a
// fixed partition of the mode, bank, capacity and associativity axes.
// Tiles are disjoint, so handing them out in a seeded order never
// repeats a point; a tile is a 12-48 point grid.
var (
	dseBlocks      = []int{16, 32, 64, 128, 256}
	dseModeGroups  = [][]string{{"normal"}, {"sequential", "fast"}}
	dseBankGroups  = [][]int{{1, 2}, {4, 8}}
	dseCapGroups   = [][]int64{allKB[0:3], allKB[3:7], allKB[7:10], allKB[10:13]}
	dseAssocGroups = [][]int{{1, 2}, {4, 8, 16}}
)

func dseTileCount() int {
	return len(tech.Providers()) * len(nodes) * len(rams) * len(dseBlocks) *
		len(dseModeGroups) * len(dseBankGroups) * len(dseCapGroups) * len(dseAssocGroups)
}

func dseTile(i int) grid {
	next := func(n int) int { v := i % n; i /= n; return v }
	g := grid{}
	g.assocs = dseAssocGroups[next(len(dseAssocGroups))]
	g.capsKB = dseCapGroups[next(len(dseCapGroups))]
	g.banks = dseBankGroups[next(len(dseBankGroups))]
	g.modes = dseModeGroups[next(len(dseModeGroups))]
	g.block = dseBlocks[next(len(dseBlocks))]
	g.ram = rams[next(len(rams))]
	g.node = nodes[next(len(nodes))]
	g.tech = tech.Providers()[next(len(tech.Providers()))]
	return g
}

// dseColdPlan: 75% /v1/sweep, 15% /v1/pareto and 10% /v1/solve, every
// grid a fresh tile and every single solve a point of a fresh tile.
func dseColdPlan(_ *workload, seed uint64) *plan {
	r := newRand(seed, 1)
	order := balanced(r.Perm(dseTileCount()), func(i int) int {
		g := dseTile(i)
		return techRAM(g.tech, g.ram)
	})
	var singles []point
	nextTile := func() (grid, bool) {
		if len(order) == 0 {
			return grid{}, false
		}
		g := dseTile(order[0])
		order = order[1:]
		return g, true
	}
	idx := 0
	next := func() (request, bool) {
		var req request
		switch u := r.Float64(); {
		case u < 0.10:
			for len(singles) == 0 {
				g, ok := nextTile()
				if !ok {
					return request{}, false
				}
				singles = g.points()
			}
			req = solveRequest(singles[0])
			singles = singles[1:]
		default:
			g, ok := nextTile()
			if !ok {
				return request{}, false
			}
			k := kSweep
			if u < 0.25 {
				k = kPareto
			}
			req = gridRequest(k, g, false)
		}
		req.idx = idx
		idx++
		return req, true
	}
	return &plan{next: next}
}

// workingSet draws n disjoint 64-point grids (blocks of 32-128 bytes)
// and reports which bases they use. Bases are taken in a seeded order
// but spread evenly over technologies and RAM types, so working sets
// of different seeds cost about the same to hold and to answer.
func workingSet(r *rand.Rand, n int) ([]grid, map[base]bool) {
	all := bases([]int{32, 64, 128})
	perTech := (n + len(tech.Providers()) - 1) / len(tech.Providers())
	perRAM := (n + len(rams) - 1) / len(rams)
	techs, ramCount := map[string]int{}, map[string]int{}
	used := make(map[base]bool, n)
	var gs []grid
	for _, bi := range r.Perm(len(all)) {
		b := all[bi]
		if len(gs) == n {
			break
		}
		if techs[b.tech] == perTech || ramCount[b.ram] == perRAM {
			continue
		}
		techs[b.tech]++
		ramCount[b.ram]++
		used[b] = true
		gs = append(gs, wsGrid(r, b))
	}
	return gs, used
}

func flatten(gs []grid) []point {
	var out []point
	for _, g := range gs {
		out = append(out, g.points()...)
	}
	return out
}

// repeatHotPlan: a 2048-spec working set loaded by an untimed
// /v1/solve-batch per grid; then 60% /v1/solve Zipf(s=1.1) over the
// set, 25% /v1/sweep of one of its grids (a fifth as CSV) and 15%
// /v1/solve-batch of 16 of its specs.
func repeatHotPlan(w *workload, seed uint64) *plan {
	r := newRand(seed, 2)
	gs, _ := workingSet(r, w.wsGrids)
	ws := flatten(gs)
	p := &plan{}
	for _, g := range gs {
		p.warm = append(p.warm, batchOf(g.points()))
	}
	rank := r.Perm(len(ws)) // Zipf rank -> working-set index
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(ws)-1))
	solves := make([]request, len(ws))
	for i, pt := range ws {
		solves[i] = solveRequest(pt)
	}
	sweeps := make([][2]request, len(gs))
	for i, g := range gs {
		sweeps[i] = [2]request{gridRequest(kSweep, g, false), gridRequest(kSweep, g, true)}
	}
	idx := 0
	p.next = func() (request, bool) {
		var req request
		switch u := r.Float64(); {
		case u < 0.60:
			req = solves[rank[zipf.Uint64()]]
		case u < 0.85:
			req = sweeps[r.IntN(len(gs))][boolIndex(r.IntN(5) == 0)]
		default:
			ps := make([]point, 16)
			for i := range ps {
				ps[i] = ws[r.IntN(len(ws))]
			}
			req = batchOf(ps)
		}
		req.idx = idx
		idx++
		return req, true
	}
	return p
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// storeChurnPlan: an 8192-spec working set prefilled through
// /v1/solve-batch; then 70% /v1/solve uniform over the set, 20%
// /v1/solve of specs never asked before, and 10% /v1/sweep-jobs of 32
// points, half from the set.
func storeChurnPlan(w *workload, seed uint64) *plan {
	r := newRand(seed, 3)
	gs, wsBases := workingSet(r, w.wsGrids)
	ws := flatten(gs)
	p := &plan{}
	for _, g := range gs {
		p.warm = append(p.warm, batchOf(g.points()))
	}
	solves := make([]request, len(ws))
	for i, pt := range ws {
		solves[i] = solveRequest(pt)
	}
	var fresh []base
	for _, b := range bases([]int{32, 64, 128}) {
		if !wsBases[b] {
			fresh = append(fresh, b)
		}
	}
	seen := make(map[point]bool)
	wsSolves, idx := 0, 0
	p.wsSolves = func() int { return wsSolves }
	p.next = func() (request, bool) {
		var req request
		switch u := r.Float64(); {
		case u < 0.70:
			req = solves[r.IntN(len(solves))]
			wsSolves++
		case u < 0.90:
			for {
				b := fresh[r.IntN(len(fresh))]
				pt := point{b.tech, b.node, b.ram, allKB[r.IntN(len(allKB))], b.block,
					assocs[r.IntN(len(assocs))], banks[r.IntN(len(banks))], b.mode}
				if !seen[pt] {
					seen[pt] = true
					req = solveRequest(pt)
					break
				}
			}
		default:
			req = jobGrid(r, gs, wsBases)
		}
		req.idx = idx
		idx++
		return req, true
	}
	return p
}

// jobGrid crosses half of a working-set grid with a second access mode
// whose base is outside the working set: 4 capacities × 2
// associativities × 2 bank counts × 2 modes, 16 points resident.
func jobGrid(r *rand.Rand, gs []grid, wsBases map[base]bool) request {
	for {
		g := gs[r.IntN(len(gs))]
		m := modes[r.IntN(len(modes))]
		if wsBases[base{g.tech, g.node, g.ram, g.block, m}] {
			continue
		}
		j := grid{tech: g.tech, node: g.node, ram: g.ram, block: g.block,
			modes: []string{g.modes[0], m}, capsKB: g.capsKB,
			assocs: pick(r, g.assocs, 2), banks: pick(r, g.banks, 2)}
		return gridRequest(kJob, j, false)
	}
}

// Cluster grids: one 128-point tile per base (capacities 64 KB-8 MB ×
// associativities 1-8 × banks 1-8), all feasible and disjoint.
// Fresh single solves use the capacities no tile has.
var (
	clusterCapsKB   = allKB[2:10]
	clusterSingleKB = []int64{16, 32, 16 << 10, 32 << 10, 64 << 10}
)

// clusterSweepPlan: 52% /v1/sweep and 15% /v1/pareto of 128 points,
// half fresh grids and half repeats of one of the 32 latest fresh
// grids (resident on their owners), and 33% /v1/solve, half fresh and
// half a point of a recent grid. A 128-point sweep takes tens of
// milliseconds, so a third of single solves is what gives the solve
// percentiles enough samples in one run.
func clusterSweepPlan(_ *workload, seed uint64) *plan {
	r := newRand(seed, 4)
	all := bases(dseBlocks)
	order := balanced(r.Perm(len(all)), func(i int) int { return techRAM(all[i].tech, all[i].ram) })
	var recent []grid
	seen := make(map[point]bool)
	idx := 0
	next := func() (request, bool) {
		var req request
		repeat := len(recent) > 0 && r.IntN(2) == 0
		switch u := r.Float64(); {
		case u < 0.33:
			if repeat {
				g := recent[r.IntN(len(recent))]
				pts := g.points()
				req = solveRequest(pts[r.IntN(len(pts))])
				break
			}
			for {
				b := all[r.IntN(len(all))]
				pt := point{b.tech, b.node, b.ram, clusterSingleKB[r.IntN(len(clusterSingleKB))], b.block,
					assocs[r.IntN(4)], banks[r.IntN(4)], b.mode}
				if !seen[pt] {
					seen[pt] = true
					req = solveRequest(pt)
					break
				}
			}
		default:
			k := kSweep
			if u < 0.48 {
				k = kPareto
			}
			var g grid
			if repeat {
				g = recent[r.IntN(len(recent))]
			} else {
				if len(order) == 0 {
					return request{}, false
				}
				b := all[order[0]]
				order = order[1:]
				g = grid{tech: b.tech, node: b.node, ram: b.ram, block: b.block, modes: []string{b.mode},
					capsKB: clusterCapsKB, assocs: assocs[:4], banks: banks}
				recent = append(recent, g)
				if len(recent) > 32 {
					recent = recent[1:]
				}
			}
			req = gridRequest(k, g, false)
		}
		req.idx = idx
		idx++
		return req, true
	}
	return &plan{next: next}
}
