// Package array models one bank of a CACTI-D memory: a grid of mats
// connected by repeated H-tree address and data networks, organized
// into subbanks (rows of mats that activate together). It enumerates
// the internal partitioning choices (subarray rows/columns, column
// mux degree) that CACTI-D's optimizer searches over, and evaluates
// area, timing (access, random cycle, multisubbank interleave cycle),
// energy, leakage and refresh for each organization.
//
// Enumeration is the solver's hot path: EnumerateContext shards the
// (rows, cols) grid across a bounded worker pool, prunes infeasible
// organizations with cheap integer/signal-margin prechecks before any
// circuit modeling, and reuses the mux-independent mat model
// (mat.Shared) across the column-mux inner loop and, through the
// process-wide mat-stage table (mattable.go), across solves of the
// same technology. The merged output is byte-identical to a serial
// scan of the same grid.
package array

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"cactid/internal/circuit"
	"cactid/internal/mat"
	"cactid/internal/tech"
)

// Spec is the input specification of a single bank.
type Spec struct {
	Tech *tech.Technology
	RAM  tech.RAMType

	// CapacityBytes is the data capacity of the bank.
	CapacityBytes int64

	// OutputBits is the number of bits the bank must deliver per
	// access (for a cache data array, blocksize*8; for a tag array,
	// the tag width; for a main-memory DRAM, the internal prefetch
	// width).
	OutputBits int

	// AssocReadout is the number of associative ways read in
	// parallel (normal access mode reads all ways and late-selects;
	// sequential access and plain memories use 1).
	AssocReadout int

	// RouteAllWays routes every way over the data H-tree instead of
	// way-selecting at the subbank edge (the "fast" access mode:
	// data for all ways reaches the bank edge with the tags, at the
	// cost of AssocReadout times the H-tree switching energy).
	RouteAllWays bool

	// PageBits, when positive, constrains the number of sense
	// amplifiers activated per access (the DRAM page size,
	// Section 2.1): subbank width is chosen so that exactly PageBits
	// columns are sensed.
	PageBits int

	// MaxPipelineStages bounds the access-path pipelining used to
	// improve the multisubbank interleave cycle time (the LLC study
	// uses 6). Zero means 8.
	MaxPipelineStages int

	// RepeaterSlack is the paper's "max repeater delay constraint":
	// 0 gives delay-optimal repeaters; larger values trade delay for
	// energy.
	RepeaterSlack float64

	// SleepTransistors halves the leakage of all mats not activated
	// during an access (modeled for the Xeon L3 validation).
	SleepTransistors bool

	// Ports is the number of independent read/write ports (SRAM
	// only); zero means 1.
	Ports int
}

// Org is one internal organization choice.
type Org struct {
	Rows int // wordlines per subarray
	Cols int // columns per subarray
	Mux  int // column mux degree

	MatsPerSubbank int // mats activated together
	Subbanks       int // independently addressable subbanks sharing the H-tree
	Mats           int // total mats = MatsPerSubbank * Subbanks
}

// String spells the organization as
// "%dx%d mux%d (%d mats = %d subbanks x %d)" of rows, columns, mux,
// mats, subbanks and mats per subbank; exported results carry it.
func (o Org) String() string {
	var buf [96]byte
	b := strconv.AppendInt(buf[:0], int64(o.Rows), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(o.Cols), 10)
	b = strconv.AppendInt(append(b, " mux"...), int64(o.Mux), 10)
	b = strconv.AppendInt(append(b, " ("...), int64(o.Mats), 10)
	b = strconv.AppendInt(append(b, " mats = "...), int64(o.Subbanks), 10)
	b = strconv.AppendInt(append(b, " subbanks x "...), int64(o.MatsPerSubbank), 10)
	return string(append(b, ')'))
}

// Bank is an evaluated organization.
type Bank struct {
	Spec Spec
	Org  Org
	Mat  *mat.Mat

	// Geometry.
	Width, Height float64
	Area          float64
	AreaEff       float64
	MatsArea      float64 // area occupied by mats (cells + local periphery)
	WireArea      float64 // H-tree wiring and repeaters

	// Timing (s).
	AccessTime      float64 // address in + mat + data out
	RandomCycle     float64 // back-to-back accesses to one subbank
	InterleaveCycle float64 // accesses interleaved across subbanks
	HtreeInDelay    float64
	HtreeOutDelay   float64
	PipelineStages  int

	// Per-access energy (J).
	EActivate  float64 // row activation share (page open for DRAM)
	ERead      float64 // column read incl. data return
	EWrite     float64
	EPrecharge float64

	// Standby power (W).
	Leakage      float64
	RefreshPower float64
}

// EReadTotal returns the total energy of a random read access
// (activate + read + precharge), the quantity CACTI-D's optimizer
// weights as "dynamic energy".
func (b *Bank) EReadTotal() float64 { return b.EActivate + b.ERead + b.EPrecharge }

// ErrNoOrganization is returned when no valid internal organization
// exists for a spec.
var ErrNoOrganization = errors.New("array: no valid organization for spec")

func pow2sUpTo(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

// The Section 2.4 enumeration grid: subarray rows and columns from 32
// to 8192, column mux degrees from 1 to 1024. Precomputed once — the
// enumeration loop allocates nothing for the grid itself.
var (
	enumRows = pow2sUpTo(32, 8192)
	enumCols = pow2sUpTo(32, 8192)
	enumMux  = pow2sUpTo(1, 1024)
)

// Counters audits one enumeration: every (rows, cols, mux) triple of
// the grid lands in exactly one bucket, so
// Considered == PrunedTotal() + Built + BuildErrors.
type Counters struct {
	Considered int64 `json:"considered"` // grid triples examined

	// Prune buckets, in precheck order.
	PrunedMux    int64 `json:"pruned_mux"`           // mux degree exceeds columns
	PrunedGeom   int64 `json:"pruned_geometry"`      // no valid subbank shape / divisibility
	PrunedPage   int64 `json:"pruned_page"`          // DRAM page-size constraint
	PrunedOutput int64 `json:"pruned_output_width"`  // subbank narrower than required output
	PrunedWaste  int64 `json:"pruned_overprovision"` // >2x capacity overprovision
	PrunedMargin int64 `json:"pruned_signal_margin"` // DRAM bitline signal below sense minimum

	// Branch-and-bound buckets (EnumerateBounded only; zero on the
	// plain path). Shard-level prunes discard the whole mux loop of a
	// (rows, cols) pair from its mux-independent area lower bound;
	// point-level prunes discard a single mux choice from its refined
	// area or access-time bound.
	PrunedBoundShard int64 `json:"pruned_bound_shard"`
	PrunedBoundPoint int64 `json:"pruned_bound_point"`

	Built       int64 `json:"built"`        // fully circuit-modeled organizations
	BuildErrors int64 `json:"build_errors"` // rejections the precheck did not anticipate
}

// PrunedTotal returns the number of organizations rejected before the
// expensive circuit/mat modeling.
func (c Counters) PrunedTotal() int64 {
	return c.PrunedMux + c.PrunedGeom + c.PrunedPage + c.PrunedOutput + c.PrunedWaste + c.PrunedMargin +
		c.PrunedBoundShard + c.PrunedBoundPoint
}

// Add accumulates another enumeration's counters: core combines the
// data- and tag-array scans with it, and EnumerateContext merges the
// per-shard counters through the same single code path.
func (c *Counters) Add(o Counters) {
	c.Considered += o.Considered
	c.PrunedMux += o.PrunedMux
	c.PrunedGeom += o.PrunedGeom
	c.PrunedPage += o.PrunedPage
	c.PrunedOutput += o.PrunedOutput
	c.PrunedWaste += o.PrunedWaste
	c.PrunedMargin += o.PrunedMargin
	c.PrunedBoundShard += o.PrunedBoundShard
	c.PrunedBoundPoint += o.PrunedBoundPoint
	c.Built += o.Built
	c.BuildErrors += o.BuildErrors
}

// Enumerate evaluates every valid organization for spec, returning
// them in deterministic grid order (rows-major, then cols, then mux).
// Invalid combinations (signal margin, divisibility) are skipped
// silently. It is EnumerateContext with the default worker pool.
func Enumerate(spec Spec) []*Bank {
	banks, _, _ := EnumerateContext(context.Background(), spec, 0)
	return banks
}

// EnumerateContext evaluates every valid organization for spec on a
// bounded worker pool (workers <= 0 means GOMAXPROCS), returning them
// in the same deterministic grid order as a serial scan, plus the
// prune/build counters. A cancelled context aborts the scan and
// returns ctx.Err() with nil banks.
func EnumerateContext(ctx context.Context, spec Spec, workers int) ([]*Bank, Counters, error) {
	bc, err := newBuildCtx(spec)
	if err != nil {
		return nil, Counters{}, err
	}
	bc.mats = matStageFor(spec.Tech, spec.RAM, spec.Ports)
	return enumerateWith(ctx, bc, workers, NoLimits())
}

// enumerateWith is the shared engine behind EnumerateContext
// (NoLimits) and Prescanned.Enumerate (caller-derived pruning
// thresholds).
func enumerateWith(ctx context.Context, bc *buildCtx, workers int, lim Limits) ([]*Bank, Counters, error) {
	type shard struct{ rows, cols int }
	shards := make([]shard, 0, len(enumRows)*len(enumCols))
	for _, rows := range enumRows {
		for _, cols := range enumCols {
			shards = append(shards, shard{rows, cols})
		}
	}
	results := make([]shardResult, len(shards))

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers == 1 {
		for i, sh := range shards {
			if ctx.Err() != nil {
				break
			}
			results[i] = enumerateShard(bc, sh.rows, sh.cols, lim)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(shards) || ctx.Err() != nil {
						return
					}
					results[i] = enumerateShard(bc, shards[i].rows, shards[i].cols, lim)
				}
			}()
		}
		wg.Wait()
	}

	var c Counters
	total := 0
	for i := range results {
		total += len(results[i].banks)
		c.Add(results[i].counters)
	}
	if err := ctx.Err(); err != nil {
		return nil, c, err
	}
	// Merge in shard order: shards enumerate (rows, cols) in the same
	// order as the serial triple loop, and each shard's banks are in
	// ascending mux order, so the concatenation reproduces the serial
	// output exactly.
	out := make([]*Bank, 0, total)
	for i := range results {
		out = append(out, results[i].banks...)
	}
	return out, c, nil
}

type shardResult struct {
	banks    []*Bank
	counters Counters
}

// enumerateShard scans the column-mux inner loop for one (rows, cols)
// pair in two passes. Pass 1 classifies every mux point with integer
// arithmetic only (no circuit modeling) and collects the survivors;
// pass 2 builds the mux-independent mat model once and evaluates the
// survivors into slab-allocated []mat.Mat / []Bank blocks sized
// exactly from the post-precheck survivor count, so the shard does one
// allocation per slab instead of one per point. The emitted banks stay
// in ascending mux order, preserving the serial-scan byte identity.
func enumerateShard(bc *buildCtx, rows, cols int, lim Limits) shardResult {
	var r shardResult

	// Pass 1: integer prechecks over the mux loop — or the prescan's
	// stored classification when one exists (the survivor list is
	// copied to scratch space because the point-level bound filter
	// below compacts it in place).
	var survBuf [16]Org
	surv := survBuf[:0]
	if bc.scan != nil {
		sc := &bc.scan[(bits.TrailingZeros(uint(rows))-5)*len(enumCols)+bits.TrailingZeros(uint(cols))-5]
		r.counters = sc.counters
		surv = append(surv, sc.surv...)
	} else {
		for _, mux := range enumMux {
			r.counters.Considered++
			if mux > cols {
				r.counters.PrunedMux++
				continue
			}
			o := OrgFor(bc.spec, rows, cols, mux)
			if reason := bc.precheck(o); reason != prOK {
				r.counters.bump(reason)
				continue
			}
			surv = append(surv, o)
		}
	}
	if len(surv) == 0 {
		return r
	}

	// DRAM signal-margin fast path: the closed-form check mirrors
	// NewShared's ErrSignalMargin test bit for bit, so the shard can be
	// charged to the same counter bucket without paying for the model.
	if !bc.marginOK(rows) {
		r.counters.PrunedMargin += int64(len(surv))
		return r
	}

	// Shard-level bounds, two tiers: when the cheap geometric lower
	// bounds — or, failing those, the tightened closed-form bounds —
	// already violate the limits, every precheck survivor is provably
	// outside the staged filter's reach; discard the whole shard
	// before mat.NewShared runs.
	if lim.active() {
		pruned := false
		if areaLB, accLB := bc.shardBounds(rows, cols); lim.prune(areaLB, accLB) {
			pruned = true
		} else if areaLB, accLB := bc.shardBoundsTight(rows, cols); lim.prune(areaLB, accLB) {
			pruned = true
		}
		if pruned {
			r.counters.PrunedBoundShard += int64(len(surv))
			return r
		}

		// Lite point tier: per-point bounds from the memoized shard
		// lower bound alone — the point's own floorplan fold gives an
		// H-tree length floor without any circuit modeling. When it
		// clears the whole shard, mat.NewShared is never paid for.
		lb := bc.mats.shardLBFor(rows, cols)
		kept := surv[:0]
		for _, o := range surv {
			if areaLB, accLB := bc.pointBoundsLite(lb, o); lim.prune(areaLB, accLB) {
				r.counters.PrunedBoundPoint++
				continue
			}
			kept = append(kept, o)
		}
		surv = kept
		if len(surv) == 0 {
			return r
		}
	}

	// Pass 2: batch-build the survivors against one shared mat model.
	sh, shErr := bc.mats.sharedFor(rows, cols)
	if shErr != nil {
		// The serial scan charges the shared-model failure to every
		// surviving mux point in turn; keep that accounting.
		if errors.Is(shErr, mat.ErrSignalMargin) {
			r.counters.PrunedMargin += int64(len(surv))
		} else {
			r.counters.BuildErrors += int64(len(surv))
		}
		return r
	}

	// Point-level bounds: with the memoized mux parts in hand the
	// mat's access time and footprint are known exactly; discard
	// points before sizing the output slabs so the slabs hold only
	// what will actually be built.
	if lim.active() {
		kept := surv[:0]
		for _, o := range surv {
			parts := bc.mats.muxPartsFor(sh, cols, o.Mux)
			if areaLB, accLB := bc.pointBounds(sh, parts, o); lim.prune(areaLB, accLB) {
				r.counters.PrunedBoundPoint++
				continue
			}
			// Final tier: the exact bank metrics (finishInto's own
			// floats, H-tree solved for real). Anything the AM-GM tier
			// above lets through but the limits exclude is caught here,
			// so only true filter candidates reach BuildInto.
			if area, acc := bc.pointExact(sh, parts, o); lim.prune(area, acc) {
				r.counters.PrunedBoundPoint++
				continue
			}
			kept = append(kept, o)
		}
		surv = kept
		if len(surv) == 0 {
			return r
		}
	}

	mats := make([]mat.Mat, len(surv))
	banks := make([]Bank, len(surv))
	r.banks = make([]*Bank, 0, len(surv))
	n := 0
	for _, o := range surv {
		parts := bc.mats.muxPartsFor(sh, cols, o.Mux)
		if err := sh.BuildInto(o.Mux, parts, &mats[n]); err != nil {
			r.counters.BuildErrors++
			continue
		}
		mats[n].Tech = bc.spec.Tech // the caller's, not the table's private copy
		r.counters.Built++
		bc.finishInto(o, &mats[n], &banks[n])
		r.banks = append(r.banks, &banks[n])
		n++
	}
	return r
}

// OrgFor derives the full organization implied by a (rows, cols, mux)
// choice under spec's output and page constraints. The returned Org
// may be invalid; Build validates.
func OrgFor(spec Spec, rows, cols, mux int) Org {
	o := Org{Rows: rows, Cols: cols, Mux: mux}
	bitsPerMat := 4 * rows * cols
	capacityBits := spec.CapacityBytes * 8
	o.Mats = int((capacityBits + int64(bitsPerMat) - 1) / int64(bitsPerMat))

	internalOut := spec.OutputBits * max(1, spec.AssocReadout)
	if spec.PageBits > 0 {
		// DRAM page constraint: sensed columns per subbank ==
		// PageBits (all columns of the activated mats are sensed).
		o.MatsPerSubbank = spec.PageBits / (4 * cols)
	} else {
		bitsPerMatOut := 4 * cols / mux
		o.MatsPerSubbank = (internalOut + bitsPerMatOut - 1) / bitsPerMatOut
	}
	if o.MatsPerSubbank < 1 {
		o.MatsPerSubbank = 0 // invalid; Build rejects
		return o
	}
	o.Subbanks = o.Mats / o.MatsPerSubbank
	return o
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pruneReason classifies why an organization is rejected before
// circuit modeling.
type pruneReason int

const (
	prOK pruneReason = iota
	prGeom
	prPage
	prOutput
	prWaste
)

func (c *Counters) bump(r pruneReason) {
	switch r {
	case prGeom:
		c.PrunedGeom++
	case prPage:
		c.PrunedPage++
	case prOutput:
		c.PrunedOutput++
	case prWaste:
		c.PrunedWaste++
	}
}

// buildCtx caches every organization-independent quantity of Build:
// resolved technology pointers, address/data widths, and the bank-edge
// output driver. It is shared across enumeration workers: the exactPt
// memo and the slots of the table entry mats fill lazily with pure
// values through atomic pointers, and everything else is immutable
// after construction.
type buildCtx struct {
	spec Spec
	cell *tech.CellParams
	per  *tech.DeviceParams
	wire *tech.WireParams

	internalOut int
	addrBits    int
	dataBits    int
	outDrv      circuit.Result

	// bnd holds the spec-level constants of the branch-and-bound
	// lower bounds (see bound.go).
	bnd bounder

	// marginFail memoizes mat.SignalMarginOK per enumRows slot so the
	// enumeration can charge DRAM margin failures without running
	// NewShared; nil for cell types the check never fails for.
	marginFail []bool

	// mats is the spec's entry in the process-wide mat-stage table
	// (mattable.go): the mat models, shard bounds and mux parts of the
	// grid, shared with every other solve of the same technology, RAM
	// type and ports. Nil for Build, which models its mat cold.
	mats *matStage

	// exactPt memoizes pointExact per (rows, cols, mux) slot: the
	// solver's exact-minimum walks and the enumeration's final pruning
	// tier visit overlapping points, and the H-tree repeated-wire
	// solution inside is the only per-point cost worth skipping. Slots
	// are published with atomic pointers; racing workers compute
	// identical values, so last-write-wins is benign.
	exactPt []atomic.Pointer[pointMetrics]

	// scan, when non-nil, holds the full precheck classification of
	// the grid (one entry per (rows, cols) slot, filled serially by
	// Prescan); the enumeration reads it instead of rescanning the mux
	// loop. Read-only once published.
	scan []shardScan
}

// shardScan is one (rows, cols) slot of a prescan: the precheck
// counter buckets of its mux loop and the surviving organizations in
// ascending mux order.
type shardScan struct {
	counters Counters
	surv     []Org
}

func newBuildCtx(spec Spec) (*buildCtx, error) {
	if spec.CapacityBytes <= 0 || spec.OutputBits <= 0 {
		return nil, fmt.Errorf("array: bad spec: capacity %d, output %d", spec.CapacityBytes, spec.OutputBits)
	}
	t := spec.Tech
	cell := t.Cell(spec.RAM)
	per := t.Device(cell.PeripheralDevice)
	bc := &buildCtx{
		spec: spec,
		cell: cell,
		per:  per,
		wire: t.Wire(tech.WireGlobal),
	}
	bc.internalOut = spec.OutputBits * max(1, spec.AssocReadout)
	bc.addrBits = int(math.Ceil(math.Log2(float64(spec.CapacityBytes*8)))) + 8 // address + control
	// Way select happens at the subbank edge, so only OutputBits
	// travel the data H-tree even when all ways are read out —
	// unless RouteAllWays (fast mode) ships every way to the edge.
	bc.dataBits = spec.OutputBits
	if spec.RouteAllWays {
		bc.dataBits = bc.internalOut
	}
	// Output drivers at the bank edge.
	bc.outDrv = circuit.TristateDriver(per, 60e-15)
	bc.exactPt = make([]atomic.Pointer[pointMetrics], len(enumRows)*len(enumCols)*len(enumMux))
	bc.bnd = newBounder(bc)
	if cell.Kind == tech.Kind1T1C && spec.Ports <= 1 {
		bc.marginFail = make([]bool, len(enumRows))
		for i, rows := range enumRows {
			bc.marginFail[i] = !mat.SignalMarginOK(t, spec.RAM, spec.Ports, rows)
		}
	}
	return bc, nil
}

// marginOK reports (from the memo) whether a row count passes the DRAM
// signal-margin test; rows outside the enumeration grid fall through
// to NewShared's own check.
func (bc *buildCtx) marginOK(rows int) bool {
	if bc.marginFail == nil {
		return true
	}
	i := bits.TrailingZeros(uint(rows)) - 5
	if i < 0 || i >= len(bc.marginFail) {
		return true
	}
	return !bc.marginFail[i]
}

// precheck runs the cheap integer feasibility tests of Build, in the
// same order, without allocating error values.
func (bc *buildCtx) precheck(o Org) pruneReason {
	if o.MatsPerSubbank < 1 || o.Mats < 1 {
		return prGeom
	}
	if o.MatsPerSubbank > o.Mats || o.Mats%o.MatsPerSubbank != 0 {
		return prGeom
	}
	if bc.spec.PageBits > 0 && o.MatsPerSubbank*4*o.Cols != bc.spec.PageBits {
		return prPage
	}
	if got := o.MatsPerSubbank * 4 * o.Cols / o.Mux; got < bc.internalOut {
		return prOutput
	}
	// Reject gross overprovision (>2x the needed mats) so rounding
	// from non-power-of-two capacities stays tight.
	bitsPerMat := int64(4 * o.Rows * o.Cols)
	if int64(o.Mats)*bitsPerMat > 2*bc.spec.CapacityBytes*8 {
		return prWaste
	}
	return prOK
}

// checkErr formats the descriptive rejection error Build reports for
// a prune reason.
func (bc *buildCtx) checkErr(o Org, r pruneReason) error {
	switch r {
	case prGeom:
		if o.MatsPerSubbank < 1 || o.Mats < 1 {
			return fmt.Errorf("array: org needs at least one mat: %v", o)
		}
		return fmt.Errorf("array: %d mats not divisible into subbanks of %d", o.Mats, o.MatsPerSubbank)
	case prPage:
		return fmt.Errorf("array: subbank senses %d bits, page requires %d", o.MatsPerSubbank*4*o.Cols, bc.spec.PageBits)
	case prOutput:
		return fmt.Errorf("array: subbank delivers %d bits < required %d", o.MatsPerSubbank*4*o.Cols/o.Mux, bc.internalOut)
	case prWaste:
		return fmt.Errorf("array: organization wastes more than half the mats")
	}
	return nil
}

// Build evaluates one organization. It returns an error when the
// organization is infeasible (mat-level signal margin, divisibility,
// or output-width violations). Build models its mat cold through
// mat.New and never reads or fills the mat-stage table, so it is the
// oracle the table's byte-identity tests compare the enumeration
// against.
func Build(spec Spec, o Org) (*Bank, error) {
	bc, err := newBuildCtx(spec)
	if err != nil {
		return nil, err
	}
	if reason := bc.precheck(o); reason != prOK {
		return nil, bc.checkErr(o, reason)
	}
	m, err := mat.New(mat.Config{Tech: spec.Tech, RAM: spec.RAM, Rows: o.Rows, Cols: o.Cols, DegBLMux: o.Mux, Ports: spec.Ports})
	if err != nil {
		return nil, err
	}
	return bc.finish(o, m), nil
}

// finish assembles the bank model around an evaluated mat: floorplan,
// H-tree networks, timing, energy, leakage, refresh and area.
func (bc *buildCtx) finish(o Org, m *mat.Mat) *Bank {
	b := new(Bank)
	bc.finishInto(o, m, b)
	return b
}

// finishInto is finish writing into a caller-owned Bank (the batch
// path evaluates a whole shard into one slab instead of allocating per
// point). The arithmetic is identical to the historical finish.
func (bc *buildCtx) finishInto(o Org, m *mat.Mat, b *Bank) {
	spec := bc.spec
	cell := bc.cell

	*b = Bank{Spec: spec, Org: o, Mat: m}

	// ---- Floorplan ----
	// Fold the mat grid to near-square. Subbank rows are horizontal;
	// multiple subbanks may share a grid row if a subbank is narrow.
	gridX := o.MatsPerSubbank
	gridY := o.Subbanks
	for gridX >= 2*gridY && gridX%2 == 0 {
		gridX /= 2
		gridY *= 2
	}
	for gridY >= 2*gridX && gridY%2 == 0 {
		gridY /= 2
		gridX *= 2
	}
	matsW := float64(gridX) * m.Width
	matsH := float64(gridY) * m.Height

	// ---- H-tree networks ----
	// Address in to the farthest subbank and data back out; worst
	// case length is half the perimeter. Address and data trees have
	// identical geometry, so one repeated-wire solution serves both.
	htreeLen := (matsW + matsH) / 2
	htreeWire := circuit.NewRepeatedWire(bc.per, bc.wire, htreeLen, spec.RepeaterSlack)
	b.HtreeInDelay = htreeWire.Res.Delay
	b.HtreeOutDelay = htreeWire.Res.Delay

	addrBits, dataBits := bc.addrBits, bc.dataBits
	outDrv := bc.outDrv

	// ---- Timing ----
	// Input/output latches synchronize the bank to its clock.
	const latchDelay = 30e-12
	b.AccessTime = latchDelay + b.HtreeInDelay + m.AccessTime() + b.HtreeOutDelay + outDrv.Delay + latchDelay
	b.RandomCycle = m.RandomCycleTime()

	// Multisubbank interleaving (Section 2.3.4): the shared H-tree
	// accepts a new access per pipeline beat; sensing is the atomic
	// stage that cannot be split.
	maxStages := spec.MaxPipelineStages
	if maxStages <= 0 {
		maxStages = 8
	}
	atomic := m.TBitline + m.TSense
	segment := math.Max(atomic, b.HtreeInDelay/math.Max(1, float64(htreeWire.NumRep)))
	nStages := int(math.Ceil(b.AccessTime / math.Max(segment, 1e-12)))
	if nStages > maxStages {
		nStages = maxStages
	}
	if nStages < 1 {
		nStages = 1
	}
	b.PipelineStages = nStages
	b.InterleaveCycle = math.Max(b.AccessTime/float64(nStages), atomic)

	// ---- Energy ----
	nAct := float64(o.MatsPerSubbank)
	eAddr := float64(addrBits) * htreeWire.Res.Energy
	eData := float64(dataBits)*htreeWire.Res.Energy + float64(spec.OutputBits)*outDrv.Energy
	b.EActivate = eAddr + nAct*m.EActivate
	b.ERead = nAct*m.ERead + eData
	// A write moves OutputBits through the column path and drives
	// exactly those bitlines; reads of the other ways still occur in
	// normal mode (read-modify-select), hence nAct*ERead.
	b.EWrite = eAddr + float64(dataBits)*htreeWire.Res.Energy +
		nAct*m.ERead + float64(spec.OutputBits)*m.EWritePerBit
	b.EPrecharge = nAct * m.EPrecharge

	// ---- Leakage & refresh ----
	matLeak := float64(o.Mats) * m.Leakage
	if spec.SleepTransistors {
		active := nAct * m.Leakage
		idle := float64(o.Mats-o.MatsPerSubbank) * m.Leakage / 2
		matLeak = active + idle
	}
	wireLeak := (float64(addrBits)*htreeWire.Res.Leakage + float64(dataBits)*htreeWire.Res.Leakage) +
		float64(spec.OutputBits)*outDrv.Leakage
	b.Leakage = matLeak + wireLeak
	// Refresh: every page (row across the subbank) is activated and
	// precharged once per retention period, paying the address
	// distribution overhead per operation. The per-mat page energy is
	// kind-aware (the gain cell adds an explicit writeback, since its
	// read does not restore the row).
	if cell.Kind.NeedsRefresh() {
		ret := cell.RetentionT
		opsPerPeriod := float64(o.Subbanks) * float64(o.Rows)
		ePerOp := eAddr + nAct*m.RefreshRowEnergy()/1 // per page activation
		b.RefreshPower = opsPerPeriod * ePerOp / ret
	}

	// ---- Area ----
	matsArea := float64(o.Mats) * m.Area
	wireArea := float64(addrBits+dataBits) * bc.wire.Pitch * htreeLen
	repArea := float64(addrBits)*htreeWire.Res.Area + float64(dataBits)*htreeWire.Res.Area
	b.MatsArea = matsArea
	b.WireArea = wireArea + repArea
	b.Area = matsArea + wireArea + repArea
	scale := b.Area / (matsW * matsH)
	b.Width = matsW * math.Sqrt(scale)
	b.Height = matsH * math.Sqrt(scale)
	b.AreaEff = float64(o.Mats) * m.CellArea / b.Area
}
