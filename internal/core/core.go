// Package core is CACTI-D's solver: it takes a cache or memory
// specification, enumerates the internal organizations of the data
// (and, for caches, tag) arrays, applies the paper's staged
// optimization (max area constraint, then max access-time constraint,
// then a normalized weighted objective over dynamic energy, leakage
// power, random cycle time and multisubbank interleave cycle time —
// Section 2.4), and returns the chosen solution with the complete
// area/timing/energy/power breakdown.
//
// This is the package downstream users import; the physical
// substrates live in internal/tech, internal/circuit, internal/mat,
// internal/array and internal/dram.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"cactid/internal/array"
	"cactid/internal/circuit"
	"cactid/internal/tech"
)

// AccessMode selects how tags and data are coordinated in a cache
// access (Section 3.4).
type AccessMode int

const (
	// Normal reads tags and all data ways concurrently and
	// late-selects the hit way.
	Normal AccessMode = iota
	// Sequential reads the tag array first and then only the hit
	// way of the data array, saving energy at the cost of latency
	// (used for the DRAM LLCs in the paper's study).
	Sequential
	// Fast reads tags and all data ways concurrently and routes
	// every way to the bank edge so data is available the moment the
	// tag comparison resolves: the fastest and most energy-hungry
	// mode of the original tool.
	Fast
)

func (m AccessMode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Fast:
		return "fast"
	}
	return "normal"
}

// Weights are the relative weights of the normalized optimization
// objective (Section 2.4).
type Weights struct {
	DynamicEnergy   float64
	LeakagePower    float64
	RandomCycle     float64
	InterleaveCycle float64
}

// DefaultWeights weighs all four metrics equally.
var DefaultWeights = Weights{1, 1, 1, 1}

// Spec is the user-facing input specification.
type Spec struct {
	Node tech.Node
	RAM  tech.RAMType

	// Technology names the technology provider supplying the cell and
	// device tables (see tech.Providers). Empty or "itrs" selects the
	// built-in ITRS family, driven by RAM exactly as before providers
	// existed. Single-technology providers (itrs-sram, stt-ram, pcm,
	// gain-cell, ...) pin the data-array cell themselves, overriding
	// the RAM axis, so cross-technology sweeps can hold one grid
	// constant while this field varies. Aliases and unique prefixes
	// are accepted; normalize canonicalises.
	Technology string

	CapacityBytes int64 // total capacity across banks
	BlockBytes    int   // cache line / access granularity
	Associativity int   // 1 for direct-mapped or plain memory
	Banks         int   // independently addressable banks (>=1)

	// IsCache adds a tag array and way-select to the model.
	IsCache bool
	Mode    AccessMode

	// TagRAM overrides the tag array technology; nil RAMType zero
	// value means "same as data" for DRAM caches and SRAM otherwise.
	TagRAM *tech.RAMType

	// PageBits constrains the DRAM page size (sense amps per
	// subbank); 0 leaves it free.
	PageBits int

	// MaxPipelineStages caps access-path pipelining (study: 6).
	MaxPipelineStages int

	// Optimization controls (Section 2.4). Zero values take the
	// defaults: MaxAreaConstraint 0.4, MaxAcctimeConstraint 0.1,
	// MaxRepeaterSlack 0, DefaultWeights.
	MaxAreaConstraint    float64
	MaxAcctimeConstraint float64
	MaxRepeaterSlack     float64
	Weights              *Weights

	// SleepTransistors halves leakage of non-activated mats.
	SleepTransistors bool

	// Ports is the number of independent read/write ports (SRAM
	// only; register-file-style structures). Zero means 1.
	Ports int

	// ECC stores SECDED check bits alongside the data (8 bits per
	// 64-bit word): capacity and data movement grow by 9/8.
	ECC bool

	// IncludeBankRouting adds the inter-bank distribution network to
	// the model: address and data routed from the structure's edge
	// to the farthest bank over repeated global wires. Leave false
	// when an external interconnect (like the LLC study's crossbar)
	// reaches the banks directly.
	IncludeBankRouting bool

	// PhysicalAddressBits sizes the tags (default 40).
	PhysicalAddressBits int
}

// Solution is one evaluated cache/memory design point. Timing and
// access energies are per bank access; area, leakage and refresh
// cover the whole structure (all banks).
type Solution struct {
	Spec Spec
	Data *array.Bank
	Tag  *array.Bank // nil for plain memories

	// Per-bank timing (s).
	AccessTime      float64
	RandomCycle     float64
	InterleaveCycle float64

	// Whole-structure geometry.
	Area     float64 // m^2, all banks
	BankArea float64 // m^2, one bank
	AreaEff  float64

	// Per-access energy (J) for a full block read/write, including
	// tag access and, for DRAM, activate + precharge.
	EReadPerAccess  float64
	EWritePerAccess float64

	// Whole-structure standby power (W).
	LeakagePower float64
	RefreshPower float64

	// Write-path characteristics of technologies with asymmetric
	// writes. WriteTime is the per-access write completion time: the
	// access path plus the cell programming pulse. WriteEndurance is
	// the storage cell's write endurance in cycles. Both are zero for
	// technologies without a programming pulse or wear-out limit
	// (every ITRS cell), keeping them out of serialized output.
	WriteTime      float64
	WriteEndurance float64
}

// ErrNoSolution is returned when the spec admits no feasible design.
var ErrNoSolution = errors.New("core: no feasible solution for spec")

func (s *Spec) normalize() error {
	if s.CapacityBytes <= 0 {
		return fmt.Errorf("core: capacity %d must be positive", s.CapacityBytes)
	}
	if s.BlockBytes <= 0 {
		return errors.New("core: block size must be positive")
	}
	if s.Banks <= 0 {
		s.Banks = 1
	}
	if s.Associativity <= 0 {
		s.Associativity = 1
	}
	if s.CapacityBytes%int64(s.Banks) != 0 {
		return fmt.Errorf("core: capacity %d not divisible by %d banks", s.CapacityBytes, s.Banks)
	}
	if s.MaxAreaConstraint == 0 {
		s.MaxAreaConstraint = 0.4
	}
	if s.MaxAcctimeConstraint == 0 {
		s.MaxAcctimeConstraint = 0.1
	}
	if s.Weights == nil {
		s.Weights = &DefaultWeights
	}
	// JSON carries no NaN or infinity, so a spec holding one could
	// neither cross the fabric wire nor reach the store.
	w := s.Weights
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MaxAreaConstraint", s.MaxAreaConstraint},
		{"MaxAcctimeConstraint", s.MaxAcctimeConstraint},
		{"MaxRepeaterSlack", s.MaxRepeaterSlack},
		{"Weights.DynamicEnergy", w.DynamicEnergy},
		{"Weights.LeakagePower", w.LeakagePower},
		{"Weights.RandomCycle", w.RandomCycle},
		{"Weights.InterleaveCycle", w.InterleaveCycle},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %v must be finite", f.name, f.v)
		}
	}
	if s.PhysicalAddressBits == 0 {
		s.PhysicalAddressBits = 40
	}
	if s.Node == 0 {
		s.Node = tech.Node32
	}
	// Resolve the technology provider: canonicalise the name (the
	// default family canonicalises to the empty string, which keeps
	// pre-provider fingerprints stable) and reject combinations the
	// provider cannot model.
	p, err := tech.Resolve(s.Technology)
	if err != nil {
		return err
	}
	if p.Name() == tech.DefaultTech {
		s.Technology = ""
	} else {
		s.Technology = p.Name()
	}
	if _, err := p.DataRAM(s.RAM); err != nil {
		return err
	}
	if s.IsCache && !p.Supports(s.tagRAM()) {
		return fmt.Errorf("core: technology %q has no %v cell model for tags", p.Name(), s.tagRAM())
	}
	return nil
}

// dataRAM resolves the data-array cell type through the technology
// provider: the ITRS family echoes RAM; pinned and overlay providers
// substitute their own cell. normalize has already validated the
// combination, so errors here cannot occur and fall back to RAM.
func (s *Spec) dataRAM() tech.RAMType {
	p, err := tech.Resolve(s.Technology)
	if err != nil {
		return s.RAM
	}
	r, err := p.DataRAM(s.RAM)
	if err != nil {
		return s.RAM
	}
	return r
}

// tagRAM resolves the tag array technology.
func (s *Spec) tagRAM() tech.RAMType {
	if s.TagRAM != nil {
		return *s.TagRAM
	}
	if s.RAM.IsDRAM() {
		// DRAM LLC tags live in the same stacked DRAM (an SRAM tag
		// store for a 192MB cache would dominate leakage).
		return s.RAM
	}
	return tech.SRAM
}

// TagBits returns the per-line tag width implied by the spec: address
// bits minus index and offset, plus state (valid, dirty, coherence).
func (s *Spec) TagBits() int {
	setsTotal := s.CapacityBytes / int64(s.BlockBytes) / int64(s.Associativity)
	idx := int(math.Ceil(math.Log2(float64(setsTotal))))
	off := int(math.Ceil(math.Log2(float64(s.BlockBytes))))
	tag := s.PhysicalAddressBits - idx - off + 3
	if tag < 8 {
		tag = 8
	}
	return tag
}

// orgLess is a total order over internal organizations, used to break
// ties deterministically wherever solutions are sorted on a float
// metric: rows, then columns, then column-mux degree, then subbank
// count, then mats per subbank (the codebase's equivalent of classic
// CACTI's Ndwl/Ndbl/Nspd triple).
func orgLess(a, b array.Org) bool {
	if a.Rows != b.Rows {
		return a.Rows < b.Rows
	}
	if a.Cols != b.Cols {
		return a.Cols < b.Cols
	}
	if a.Mux != b.Mux {
		return a.Mux < b.Mux
	}
	if a.Subbanks != b.Subbanks {
		return a.Subbanks < b.Subbanks
	}
	return a.MatsPerSubbank < b.MatsPerSubbank
}

// Options tunes a solver call without affecting its result. The zero
// value (and a nil *Options) reports no counters.
type Options struct {
	// Stats, when non-nil, receives the enumeration coverage counters
	// of the solve (data and tag arrays separately).
	Stats *SolveStats
}

// SolveStats audits one Explore/Optimize call: how many organizations
// each enumeration that ran considered, pruned before circuit
// modeling, and fully built.
type SolveStats struct {
	Data array.Counters `json:"data"`
	Tag  array.Counters `json:"tag"`

	// TagShared and DataShared report that a sweep point took its tag
	// bank and data-array prescan from its sweep's SubSolves table,
	// where an earlier point computed them. No tag enumeration runs for
	// a shared tag, so Tag stays zero, unless the data array then
	// admits no bounded solve and the exhaustive fallback enumerates
	// both arrays itself.
	TagShared  bool `json:"tag_shared,omitempty"`
	DataShared bool `json:"data_shared,omitempty"`
}

// Total returns the combined data+tag counters.
func (s SolveStats) Total() array.Counters {
	t := s.Data
	t.Add(s.Tag)
	return t
}

// Explore enumerates every feasible solution for spec, without
// applying the optimization constraints. The returned slice is sorted
// by access time, with exact ties broken by the data organization
// (orgLess), so the order is a deterministic function of the spec —
// parallel and repeated callers see identical slices. This is the raw
// design space behind Figure 1's bubble chart.
func Explore(spec Spec) ([]*Solution, error) {
	return ExploreContext(context.Background(), spec, nil)
}

// ExploreContext is Explore with cancellation and solver options
// (opts may be nil).
func ExploreContext(ctx context.Context, spec Spec, opts *Options) ([]*Solution, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	t, err := tech.TechnologyOf(spec.Technology, spec.Node)
	if err != nil {
		return nil, err
	}

	// Tag array: optimized once, shared by all data organizations.
	var tag *array.Bank
	if spec.IsCache {
		var err error
		tag, err = optimizeTag(ctx, spec, t, opts)
		if err != nil {
			return nil, fmt.Errorf("core: tag array: %w", err)
		}
	}

	banks, counters, err := array.EnumerateContext(ctx, dataArraySpec(spec, t))
	if opts != nil && opts.Stats != nil {
		opts.Stats.Data = counters
	}
	if err != nil {
		return nil, err
	}
	if len(banks) == 0 {
		return nil, ErrNoSolution
	}
	// One backing array for all solutions: the enumeration produces a
	// few hundred of them per solve, and a single allocation beats a
	// per-solution heap object.
	backing := make([]Solution, len(banks))
	sols := make([]*Solution, len(banks))
	for i, b := range banks {
		assemble(spec, b, tag, &backing[i])
		sols[i] = &backing[i]
	}
	sort.Slice(sols, func(i, j int) bool {
		if sols[i].AccessTime != sols[j].AccessTime {
			return sols[i].AccessTime < sols[j].AccessTime
		}
		return orgLess(sols[i].Data.Org, sols[j].Data.Org)
	})
	return sols, nil
}

// Optimize runs the full CACTI-D optimization flow (Section 2.4) and
// returns the chosen solution.
func Optimize(spec Spec) (*Solution, error) {
	return OptimizeContext(context.Background(), spec, nil)
}

// OptimizeContext is Optimize with cancellation and solver options
// (opts may be nil). The branch-and-bound pruning never changes the
// result: the bounded path provably discards only organizations the
// staged filter could never keep (DESIGN.md §1.2e), falling back to
// the full enumeration (ExploreContext) whenever its preconditions do
// not hold. The chosen solution is byte-identical to Filter(spec,
// ExploreContext(...))[0].
func OptimizeContext(ctx context.Context, spec Spec, opts *Options) (*Solution, error) {
	return optimize(ctx, spec, opts, nil, -1)
}

// optimize is OptimizeContext for point i of the sweep whose table t
// shares array sub-solves; a nil t solves per point.
func optimize(ctx context.Context, spec Spec, opts *Options, t *SubSolves, i int) (*Solution, error) {
	c, ok, err := boundedCandidates(ctx, spec, opts, t, i)
	defer c.data.Release()
	if err != nil {
		return nil, err
	}
	if ok {
		// Filter's first solution, assembled on the stack candidate
		// by candidate: only the winner reaches the heap, with a copy
		// of its data bank.
		return c.best()
	}
	sols, err := ExploreContext(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	filtered := Filter(spec, sols)
	if len(filtered) == 0 {
		return nil, ErrNoSolution
	}
	return filtered[0], nil
}

// Filter applies the staged constraints and objective of Section 2.4
// to a solution set and returns the survivors sorted best-first.
func Filter(spec Spec, sols []*Solution) []*Solution {
	if err := spec.normalize(); err != nil || len(sols) == 0 {
		return nil
	}
	c := candidates{spec: spec, sols: sols}
	m := c.measure(make([]metric, 0, len(sols)))
	st := c.stages(m)
	// Objectives kept in a slice parallel to pass2 (sorted together):
	// cheaper than a map and the same total order.
	var pass2 []*Solution
	var objs []float64
	for i, s := range sols {
		if st.keeps(&m[i]) {
			pass2 = append(pass2, s)
			objs = append(objs, st.objective(&m[i]))
		}
	}
	sort.Sort(&byObjective{sols: pass2, objs: objs})
	return pass2
}

// candidates is a solution set as the staged filter reads it: Filter's
// assembled solutions, or the bounded solver's enumerated data banks,
// which at assembles over the tag bank one at a time into a caller's
// scratch. The banks live in the enumeration's pooled buffer until its
// caller releases data. spec is normalized.
type candidates struct {
	spec Spec
	sols []*Solution
	data array.Enumerated
	tag  *array.Bank
}

func (c *candidates) len() int {
	if c.sols != nil {
		return len(c.sols)
	}
	return len(c.data.Banks)
}

// at returns candidate i, assembling it into scratch when the set
// holds banks.
func (c *candidates) at(i int, scratch *Solution) *Solution {
	if c.sols != nil {
		return c.sols[i]
	}
	assemble(c.spec, c.data.Banks[i], c.tag, scratch)
	return scratch
}

// org returns candidate i's data organization, the last key of the
// filter's order.
func (c *candidates) org(i int) *array.Org {
	if c.sols != nil {
		return &c.sols[i].Data.Org
	}
	return &c.data.Banks[i].Org
}

// metric is what the staged filter reads of one candidate: its area
// and access time for the cuts, and the objective's four terms.
type metric struct {
	area, acc, energy, leakage, cycle, interleave float64
}

// measure appends every candidate's metric to dst, in candidate order,
// assembling each bank candidate once.
func (c *candidates) measure(dst []metric) []metric {
	var scratch Solution
	for i, n := 0, c.len(); i < n; i++ {
		s := c.at(i, &scratch)
		dst = append(dst, metric{s.Area, s.AccessTime, s.EReadPerAccess, s.LeakagePower, s.RandomCycle, s.InterleaveCycle})
	}
	return dst
}

// objective computes the normalized weighted objective given the
// normalization minima; lower is better.
func (m *metric) objective(w Weights, minE, minL, minC, minI float64) float64 {
	obj := 0.0
	if minE > 0 {
		obj += w.DynamicEnergy * m.energy / minE
	}
	if minL > 0 {
		obj += w.LeakagePower * m.leakage / minL
	}
	if minC > 0 {
		obj += w.RandomCycle * m.cycle / minC
	}
	if minI > 0 {
		obj += w.InterleaveCycle * m.interleave / minI
	}
	return obj
}

// stageCuts are the staged filter's thresholds and objective
// normalizers over one candidate set (Section 2.4): stage 1 keeps the
// solutions within MaxAreaConstraint of the minimum area, stage 2
// those of them within MaxAcctimeConstraint of their minimum access
// time, and stage 3 ranks the survivors by the weighted objective
// normalized to their own minima.
type stageCuts struct {
	area, acc              float64
	w                      Weights
	minE, minL, minC, minI float64
}

// stages derives the staged filter's cuts over the candidates' metrics
// m, one pass per stage.
func (c *candidates) stages(m []metric) stageCuts {
	// Stage 1: max area constraint relative to the best-area solution.
	minArea := math.Inf(1)
	for i := range m {
		minArea = math.Min(minArea, m[i].area)
	}
	st := stageCuts{area: minArea * (1 + c.spec.MaxAreaConstraint), w: *c.spec.Weights}
	// Stage 2: max access-time constraint within the reduced set.
	minAcc := math.Inf(1)
	for i := range m {
		if m[i].area <= st.area {
			minAcc = math.Min(minAcc, m[i].acc)
		}
	}
	st.acc = minAcc * (1 + c.spec.MaxAcctimeConstraint)
	// Stage 3: the objective's normalization minima over the survivors.
	st.minE, st.minL, st.minC, st.minI = math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range m {
		if st.keeps(&m[i]) {
			st.minE = math.Min(st.minE, m[i].energy)
			st.minL = math.Min(st.minL, m[i].leakage)
			st.minC = math.Min(st.minC, m[i].cycle)
			st.minI = math.Min(st.minI, m[i].interleave)
		}
	}
	return st
}

// keeps reports whether a candidate survives stages 1 and 2.
func (st *stageCuts) keeps(m *metric) bool {
	return m.area <= st.area && m.acc <= st.acc
}

func (st *stageCuts) objective(m *metric) float64 {
	return m.objective(st.w, st.minE, st.minL, st.minC, st.minI)
}

// ranksBefore is Filter's total order on survivors a and b with
// objectives oa and ob and access times acca and accb: objective, then
// access time, then organization order. A NaN objective (NaN or
// infinite weights make them) ranks after every number and ties with
// another NaN, so the order stays total and the bounded and exhaustive
// paths, which meet the candidates in different orders, pick the same
// winner.
func ranksBefore(oa, acca float64, a *array.Org, ob, accb float64, b *array.Org) bool {
	if na, nb := math.IsNaN(oa), math.IsNaN(ob); na != nb {
		return nb
	} else if !na && oa != ob {
		return oa < ob
	}
	if acca != accb {
		return acca < accb
	}
	return orgLess(*a, *b)
}

// best returns Filter's first solution over c without building the
// survivor list: each candidate is assembled once to measure it, and
// only the winner is assembled again, onto the heap, over a copy of
// its data bank that outlives the enumeration's buffer. The order is
// total, so the minimum is the element Filter's sort puts first.
func (c *candidates) best() (*Solution, error) {
	// Most solves keep a few dozen candidates at most; the rare larger
	// set gets one exact-size slice instead of repeated growth.
	var buf [64]metric
	m := buf[:0]
	if n := c.len(); n > len(buf) {
		m = make([]metric, 0, n)
	}
	m = c.measure(m)
	st := c.stages(m)
	win, winObj := -1, 0.0
	for i := range m {
		if !st.keeps(&m[i]) {
			continue
		}
		if o := st.objective(&m[i]); win < 0 || ranksBefore(o, m[i].acc, c.org(i), winObj, m[win].acc, c.org(win)) {
			win, winObj = i, o
		}
	}
	if win < 0 {
		return nil, ErrNoSolution
	}
	sol := new(Solution)
	if c.sols != nil {
		*sol = *c.sols[win]
	} else {
		assemble(c.spec, c.data.Banks[win].Copy(), c.tag, sol)
	}
	return sol, nil
}

// byObjective sorts solutions and their precomputed objectives in
// lockstep by ranksBefore.
type byObjective struct {
	sols []*Solution
	objs []float64
}

func (b *byObjective) Len() int { return len(b.sols) }
func (b *byObjective) Swap(i, j int) {
	b.sols[i], b.sols[j] = b.sols[j], b.sols[i]
	b.objs[i], b.objs[j] = b.objs[j], b.objs[i]
}
func (b *byObjective) Less(i, j int) bool {
	si, sj := b.sols[i], b.sols[j]
	return ranksBefore(b.objs[i], si.AccessTime, &si.Data.Org, b.objs[j], sj.AccessTime, &sj.Data.Org)
}

// dataArraySpec derives the data-array enumeration spec from a
// normalized solver spec (the single source for both the plain and
// the branch-and-bound explore paths).
func dataArraySpec(spec Spec, t *tech.Technology) array.Spec {
	assocReadout := 1
	if spec.IsCache && (spec.Mode == Normal || spec.Mode == Fast) {
		assocReadout = spec.Associativity
	}
	dataCapacity := spec.CapacityBytes / int64(spec.Banks)
	outputBits := spec.BlockBytes * 8
	if spec.ECC {
		// SECDED: 8 check bits per 64 data bits.
		dataCapacity = dataCapacity * 9 / 8
		outputBits = outputBits * 9 / 8
	}
	return array.Spec{
		Tech:              t,
		RAM:               spec.dataRAM(),
		CapacityBytes:     dataCapacity,
		OutputBits:        outputBits,
		AssocReadout:      assocReadout,
		RouteAllWays:      spec.Mode == Fast,
		PageBits:          spec.PageBits,
		MaxPipelineStages: spec.MaxPipelineStages,
		RepeaterSlack:     spec.MaxRepeaterSlack,
		SleepTransistors:  spec.SleepTransistors,
		Ports:             spec.Ports,
	}
}

// tagArraySpec derives the tag-array enumeration spec from a
// normalized cache spec.
func tagArraySpec(spec Spec, t *tech.Technology) array.Spec {
	tagBits := spec.TagBits()
	setsPerBank := spec.CapacityBytes / int64(spec.Banks) / int64(spec.BlockBytes) / int64(spec.Associativity)
	capBytes := setsPerBank * int64(spec.Associativity) * int64(tagBits) / 8
	if capBytes < 512 {
		capBytes = 512
	}
	return array.Spec{
		Tech:              t,
		RAM:               spec.tagRAM(),
		CapacityBytes:     capBytes,
		OutputBits:        tagBits * spec.Associativity, // all ways compared
		AssocReadout:      1,
		MaxPipelineStages: spec.MaxPipelineStages,
		RepeaterSlack:     spec.MaxRepeaterSlack,
		SleepTransistors:  spec.SleepTransistors,
	}
}

// optimizeTag builds and optimizes the tag array for a cache spec.
func optimizeTag(ctx context.Context, spec Spec, t *tech.Technology, opts *Options) (*array.Bank, error) {
	banks, counters, err := array.EnumerateContext(ctx, tagArraySpec(spec, t))
	if opts != nil && opts.Stats != nil {
		opts.Stats.Tag = counters
	}
	if err != nil {
		return nil, err
	}
	return fastest(banks)
}

// fastest returns a copy of the tag bank with the least access time,
// organization order breaking ties: the bank a sort by that total
// order would put first, found in one scan. Only it is copied, so the
// tag pins nothing of the enumeration it came from.
func fastest(banks []*array.Bank) (*array.Bank, error) {
	if len(banks) == 0 {
		return nil, ErrNoSolution
	}
	best := banks[0]
	for _, b := range banks[1:] {
		if b.AccessTime < best.AccessTime || b.AccessTime == best.AccessTime && orgLess(b.Org, best.Org) {
			best = b
		}
	}
	return best.Copy(), nil
}

// assemble combines a data organization with the tag array into the
// caller-provided Solution according to the access mode.
func assemble(spec Spec, data *array.Bank, tag *array.Bank, s *Solution) {
	*s = Solution{Spec: spec, Data: data, Tag: tag}
	nb := float64(spec.Banks)

	wayMux := 0.0
	if spec.IsCache && spec.Mode == Normal && spec.Associativity > 1 {
		wayMux = 30e-12 // late way-select mux after tag compare
	}
	switch {
	case !spec.IsCache:
		s.AccessTime = data.AccessTime
	case spec.Mode == Sequential:
		s.AccessTime = tag.AccessTime + data.AccessTime
	case spec.Mode == Fast:
		// All ways arrive at the edge with the tags: no way-select
		// stall on the critical path.
		s.AccessTime = math.Max(tag.AccessTime, data.AccessTime)
	default:
		s.AccessTime = math.Max(tag.AccessTime+wayMux, data.AccessTime) + wayMux
	}
	s.RandomCycle = data.RandomCycle
	s.InterleaveCycle = data.InterleaveCycle
	if spec.IsCache {
		s.RandomCycle = math.Max(s.RandomCycle, tag.RandomCycle)
		s.InterleaveCycle = math.Max(s.InterleaveCycle, tag.InterleaveCycle)
	}

	s.BankArea = data.Area
	if tag != nil {
		s.BankArea += tag.Area
	}
	s.Area = nb * s.BankArea
	cellArea := float64(data.Org.Mats) * data.Mat.CellArea
	if tag != nil {
		cellArea += float64(tag.Org.Mats) * tag.Mat.CellArea
	}
	s.AreaEff = cellArea / s.BankArea

	s.EReadPerAccess = data.EReadTotal()
	s.EWritePerAccess = data.EActivate + data.EWrite + data.EPrecharge
	if tag != nil {
		s.EReadPerAccess += tag.EReadTotal()
		s.EWritePerAccess += tag.EReadTotal()
	}

	s.LeakagePower = nb * data.Leakage
	s.RefreshPower = nb * data.RefreshPower
	if tag != nil {
		s.LeakagePower += nb * tag.Leakage
		s.RefreshPower += nb * tag.RefreshPower
	}

	if spec.IncludeBankRouting && spec.Banks > 1 {
		addBankRouting(spec, s, data)
	}

	// Asymmetric-write technologies: writes complete only after the
	// cell programming pulse, and the cell wears out.
	dcell := data.Spec.Tech.Cell(data.Spec.RAM)
	if p := dcell.WritePulse; p > 0 {
		s.WriteTime = s.AccessTime + p
	}
	if e := dcell.Endurance; e > 0 {
		s.WriteEndurance = e
	}
}

// addBankRouting extends a multi-bank solution with the inter-bank
// distribution network: banks arranged in a near-square grid, address
// and data routed to the farthest bank and back over repeated global
// wires.
func addBankRouting(spec Spec, s *Solution, data *array.Bank) {
	t := data.Spec.Tech
	per := t.Device(t.Cell(spec.RAM).PeripheralDevice)
	wire := t.Wire(tech.WireGlobal)

	gx := 1
	for gx*gx < spec.Banks {
		gx *= 2
	}
	gy := (spec.Banks + gx - 1) / gx
	side := math.Sqrt(s.BankArea)
	routeLen := (float64(gx) + float64(gy)) / 2 * side

	rw := circuit.NewRepeatedWire(per, wire, routeLen, spec.MaxRepeaterSlack)
	addrBits := int(math.Ceil(math.Log2(float64(spec.CapacityBytes*8)))) + 8
	dataBits := spec.BlockBytes * 8

	s.AccessTime += 2 * rw.Res.Delay // address in, data out
	s.RandomCycle = math.Max(s.RandomCycle, rw.Res.Delay/math.Max(1, float64(rw.NumRep)))
	eWire := float64(addrBits+dataBits) * rw.Res.Energy
	s.EReadPerAccess += eWire
	s.EWritePerAccess += eWire
	s.LeakagePower += float64(addrBits+dataBits) * rw.Res.Leakage
	s.Area += float64(addrBits+dataBits) * wire.Pitch * routeLen
}

// String summarizes a solution in engineering units.
func (s *Solution) String() string {
	return fmt.Sprintf("%v %s %dB blk assoc %d x%d banks: acc=%.2fns cyc=%.2fns int=%.2fns area=%.2fmm2 eff=%.0f%% Erd=%.3gnJ leak=%.3gW refr=%.3gW org=%v",
		s.Spec.RAM, byteSize(s.Spec.CapacityBytes), s.Spec.BlockBytes, s.Spec.Associativity, s.Spec.Banks,
		s.AccessTime*1e9, s.RandomCycle*1e9, s.InterleaveCycle*1e9,
		s.Area*1e6, s.AreaEff*100, s.EReadPerAccess*1e9, s.LeakagePower, s.RefreshPower, s.Data.Org)
}

func byteSize(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%gGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%gMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%gKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
