// Package array models one bank of a CACTI-D memory: a grid of mats
// connected by repeated H-tree address and data networks, organized
// into subbanks (rows of mats that activate together). It enumerates
// the internal partitioning choices (subarray rows/columns, column
// mux degree) that CACTI-D's optimizer searches over, and evaluates
// area, timing (access, random cycle, multisubbank interleave cycle),
// energy, leakage and refresh for each organization.
//
// Enumeration is the solver's hot path: EnumerateContext scans the
// (rows, cols) grid slot by slot, prunes infeasible organizations with
// cheap integer/signal-margin prechecks before any circuit modeling,
// and reuses the mux-independent mat model (mat.Shared) across the
// column-mux inner loop and, through the process-wide mat-stage table
// (mattable.go), across solves of the same technology.
package array

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unsafe"

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
	return string(o.Append(buf[:0]))
}

// Append appends String's text to b. The text holds no byte that a
// JSON string escapes.
func (o Org) Append(b []byte) []byte {
	b = strconv.AppendInt(b, int64(o.Rows), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(o.Cols), 10)
	b = strconv.AppendInt(append(b, " mux"...), int64(o.Mux), 10)
	b = strconv.AppendInt(append(b, " ("...), int64(o.Mats), 10)
	b = strconv.AppendInt(append(b, " mats = "...), int64(o.Subbanks), 10)
	b = strconv.AppendInt(append(b, " subbanks x "...), int64(o.MatsPerSubbank), 10)
	return append(b, ')')
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

// The Section 2.4 enumeration grid: subarray rows and columns from 32
// to 8192, column mux degrees from 1 to 1024, all powers of two, so a
// value's position on its axis is its base-2 logarithm less that of
// the axis's first value. Fixed-length arrays, so the per-solve tables
// sized by the grid are arrays too.
var (
	enumRows = [...]int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	enumCols = enumRows
	enumMux  = [...]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// gridSlots is the number of (rows, cols) slots of the grid; each slot
// owns a column-mux loop of len(enumMux) points.
const gridSlots = len(enumRows) * len(enumCols)

// slotOf returns the slot index of an on-grid (rows, cols) pair, in
// grid order (rows-major).
func slotOf(rows, cols int) int {
	return (bits.TrailingZeros(uint(rows))-5)*len(enumCols) + bits.TrailingZeros(uint(cols)) - 5
}

// slotRC returns the (rows, cols) pair of a slot index.
func slotRC(slot int) (rows, cols int) {
	return enumRows[slot/len(enumCols)], enumCols[slot%len(enumCols)]
}

// onGrid reports whether o's (rows, cols, mux) triple lies on the
// enumeration grid, the only triples the per-slot tables index.
func onGrid(o Org) bool {
	return slices.Contains(enumRows[:], o.Rows) && slices.Contains(enumCols[:], o.Cols) &&
		slices.Contains(enumMux[:], o.Mux)
}

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
// data- and tag-array scans with it.
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
// silently. It is EnumerateContext without cancellation.
func Enumerate(spec Spec) []*Bank {
	banks, _, _ := EnumerateContext(context.Background(), spec)
	return banks
}

// EnumerateContext evaluates every valid organization for spec,
// returning them in deterministic grid order, plus the prune/build
// counters. A cancelled context aborts the scan and returns ctx.Err()
// with nil banks. The caller keeps every bank, so they are copied out
// of the enumeration's pooled buffer.
func EnumerateContext(ctx context.Context, spec Spec) ([]*Bank, Counters, error) {
	bc, err := newBuildCtx(spec)
	if err != nil {
		return nil, Counters{}, err
	}
	defer bc.release()
	bc.attach()
	bc.classifyGrid()
	enum, c, err := enumerateWith(ctx, bc, NoLimits())
	defer enum.Release()
	if err != nil {
		return nil, c, err
	}
	return copyOut(enum.Banks), c, nil
}

// bankCopy holds a standalone bank and its mat side by side.
type bankCopy struct {
	bank Bank
	mat  mat.Mat
}

// BankCopyBytes is the heap one Copy allocates.
const BankCopyBytes = int64(unsafe.Sizeof(bankCopy{}))

// from makes c a copy of b and its mat that points into nothing b does.
func (c *bankCopy) from(b *Bank) *Bank {
	c.bank, c.mat = *b, *b.Mat
	c.bank.Mat = &c.mat
	return &c.bank
}

// Copy returns a standalone copy of b and its mat, in one allocation:
// the solver copies its winners out of the enumeration's pooled buffer
// with it.
func (b *Bank) Copy() *Bank { return new(bankCopy).from(b) }

// copyOut copies banks and their mats into one allocation of the
// caller's own, in order.
func copyOut(banks []*Bank) []*Bank {
	cs := make([]bankCopy, len(banks))
	out := make([]*Bank, len(banks))
	for i, b := range banks {
		out[i] = cs[i].from(b)
	}
	return out
}

// results is one enumeration's pooled buffer: the banks it built and
// their mats, appended in grid order (bank i's mat is mats[i]), and
// the merged list that points into them. One enumeration holds it from
// its first slot to its Release, so several enumerations of one shared
// prescan each take their own.
type results struct {
	banks  []Bank
	mats   []mat.Mat
	merged []*Bank
}

var resultsPool = sync.Pool{New: func() any { return new(results) }}

// release clears the entries the enumeration used, so pooled buffers
// pin no technology, and returns the buffer to its pool.
func (r *results) release() {
	clear(r.banks)
	clear(r.mats)
	clear(r.merged)
	r.banks, r.mats, r.merged = r.banks[:0], r.mats[:0], r.merged[:0]
	resultsPool.Put(r)
}

// Enumerated is a bounded enumeration's surviving banks, in grid
// order. They live in a pooled buffer until Release: a caller that
// keeps a bank copies it out first (Bank.Copy). Copies of an Enumerated
// share its buffer, so exactly one of them is released.
type Enumerated struct {
	Banks []*Bank
	res   *results
}

// Release returns the banks' buffer to its pool. Call it once, after
// the last read of Banks; it empties e, so a second call does nothing.
func (e *Enumerated) Release() {
	if e.res != nil {
		e.res.release()
	}
	*e = Enumerated{}
}

// enumerateWith is the shared engine behind EnumerateContext
// (NoLimits) and Prescanned.Enumerate (caller-derived pruning
// thresholds). bc's grid must already be classified; bc is only read,
// so enumerations of one context may run at once. It scans the slots
// in grid order, appending each slot's banks to the enumeration's own
// pooled buffer. A cancelled enumeration releases its buffer and
// returns an empty Enumerated.
func enumerateWith(ctx context.Context, bc *buildCtx, lim Limits) (Enumerated, Counters, error) {
	res := resultsPool.Get().(*results)
	// The slot loop polls ctx.Done(), which locks nothing once made,
	// where ctx.Err() takes the context's mutex once per slot.
	var c Counters
slots:
	for slot := range gridSlots {
		select {
		case <-ctx.Done():
			break slots
		default:
			enumerateShard(bc, slot, lim, &c, res)
		}
	}
	if err := ctx.Err(); err != nil {
		res.release()
		return Enumerated{}, c, err
	}

	// Slots enumerate (rows, cols) in grid order, and each slot's
	// banks are in ascending mux order, so the buffer is in grid
	// order. Appends may have moved the mats, so each bank is pointed
	// at its mat only now.
	for i := range res.banks {
		res.banks[i].Mat = &res.mats[i]
		res.merged = append(res.merged, &res.banks[i])
	}
	return Enumerated{Banks: res.merged, res: res}, c, nil
}

// enumerateShard evaluates one (rows, cols) slot of the grid, adds its
// counters to c and appends the banks it builds, and their mats, to
// res. The margin memo and the shard tiers charge the slot from its
// survivor count; past them, its survivors are rebuilt from its mask
// into a stack buffer, which the point tiers compact in place. The
// mux-independent mat model is then built once and the final survivors
// are evaluated in ascending mux order.
func enumerateShard(bc *buildCtx, slot int, lim Limits, c *Counters, res *results) {
	sc := &bc.class[slot]
	c.addSlot(sc)
	if sc.surv == 0 {
		return
	}
	nSurv := int64(bits.OnesCount16(sc.surv))
	rows, cols := slotRC(slot)

	// DRAM signal-margin fast path: the closed-form check mirrors
	// NewShared's ErrSignalMargin test bit for bit, so the shard can be
	// charged to the same counter bucket without paying for the model.
	if bc.marginFail[slot/len(enumCols)] {
		c.PrunedMargin += nSurv
		return
	}

	// Shard-level bounds, two tiers: when the cheap geometric lower
	// bounds — or, failing those, the tightened closed-form bounds —
	// already violate the limits, every precheck survivor is provably
	// outside the staged filter's reach; discard the whole shard
	// before mat.NewShared runs.
	if lim.active() {
		// A bounded enumeration follows Prescan, which computed the
		// cheap tier of every slot that reaches this point.
		pruned := false
		if pt := &bc.points[bc.pointOf[slot]]; lim.prune(pt.AreaLB, pt.AccLB) {
			pruned = true
		} else if areaLB, accLB := bc.shardBoundsTight(rows, cols); lim.prune(areaLB, accLB) {
			pruned = true
		}
		if pruned {
			c.PrunedBoundShard += nSurv
			return
		}
	}

	var buf [len(enumMux)]Org
	surv := bc.survivors(slot, sc.surv, &buf)

	// Lite point tier: per-point bounds from the memoized shard lower
	// bound alone — the point's own floorplan fold gives an H-tree
	// length floor without any circuit modeling. When it clears the
	// whole shard, mat.NewShared is never paid for.
	if lim.active() {
		lb := bc.mats.shardLBFor(rows, cols)
		kept := surv[:0]
		for _, o := range surv {
			if areaLB, accLB := bc.pointBoundsLite(lb, o); lim.prune(areaLB, accLB) {
				c.PrunedBoundPoint++
				continue
			}
			kept = append(kept, o)
		}
		surv = kept
		if len(surv) == 0 {
			return
		}
	}

	// Batch-build the survivors against one shared mat model.
	sh, shErr := bc.mats.sharedFor(rows, cols)
	if shErr != nil {
		// A per-point build charges the shared-model failure to every
		// surviving mux point in turn; keep that accounting.
		if errors.Is(shErr, mat.ErrSignalMargin) {
			c.PrunedMargin += int64(len(surv))
		} else {
			c.BuildErrors += int64(len(surv))
		}
		return
	}

	// Point-level bounds: with the memoized mux parts in hand the
	// mat's access time and footprint are known exactly; discard
	// points before building them, so the buffer holds only what
	// survives.
	if lim.active() {
		kept := surv[:0]
		for _, o := range surv {
			parts := bc.mats.muxPartsFor(sh, cols, o.Mux)
			if areaLB, accLB := bc.pointBounds(sh, parts, o); lim.prune(areaLB, accLB) {
				c.PrunedBoundPoint++
				continue
			}
			// Final tier: the exact bank metrics (finishInto's own
			// floats, H-tree solved for real). Anything the AM-GM tier
			// above lets through but the limits exclude is caught here,
			// so only true filter candidates reach BuildInto.
			if area, acc := bc.pointExact(sh, parts, o); lim.prune(area, acc) {
				c.PrunedBoundPoint++
				continue
			}
			kept = append(kept, o)
		}
		surv = kept
		if len(surv) == 0 {
			return
		}
	}

	for _, o := range surv {
		parts := bc.mats.muxPartsFor(sh, cols, o.Mux)
		n := len(res.mats)
		res.mats = append(res.mats, mat.Mat{})
		m := &res.mats[n]
		if err := sh.BuildInto(o.Mux, parts, m); err != nil {
			// BuildInto refuses before it writes m: the slot is still
			// zero.
			res.mats = res.mats[:n]
			c.BuildErrors++
			continue
		}
		m.Tech = bc.spec.Tech // the caller's, not the table's private copy
		c.Built++
		res.banks = append(res.banks, Bank{})
		bc.finishInto(o, m, &res.banks[n])
	}
}

// OrgFor derives the full organization implied by a (rows, cols, mux)
// choice under spec's output and page constraints. The returned Org
// may be invalid — MatsPerSubbank 0 when no subbank shape exists, as
// for a non-positive dimension or a mux wider than a mat's 4*cols
// sensed bits; Build validates.
func OrgFor(spec Spec, rows, cols, mux int) Org {
	o := Org{Rows: rows, Cols: cols, Mux: mux}
	bitsPerMat := 4 * rows * cols
	if bitsPerMat <= 0 || mux <= 0 {
		return o // invalid; Build rejects
	}
	capacityBits := spec.CapacityBytes * 8
	o.Mats = int((capacityBits + int64(bitsPerMat) - 1) / int64(bitsPerMat))

	internalOut := spec.OutputBits * max(1, spec.AssocReadout)
	if spec.PageBits > 0 {
		// DRAM page constraint: sensed columns per subbank ==
		// PageBits (all columns of the activated mats are sensed).
		o.MatsPerSubbank = spec.PageBits / (4 * cols)
	} else if bitsPerMatOut := 4 * cols / mux; bitsPerMatOut > 0 {
		o.MatsPerSubbank = (internalOut + bitsPerMatOut - 1) / bitsPerMatOut
	}
	if o.MatsPerSubbank < 1 {
		o.MatsPerSubbank = 0 // invalid; Build rejects
		return o
	}
	o.Subbanks = o.Mats / o.MatsPerSubbank
	return o
}

// pruneReason classifies why an organization is rejected before
// circuit modeling.
type pruneReason int

const (
	prOK pruneReason = iota
	prMux
	prGeom
	prPage
	prOutput
	prWaste
)

// slotClass is the precheck classification of one (rows, cols) slot's
// column-mux loop, held by value: which mux points survive and how
// many land in each prune bucket.
type slotClass struct {
	surv   uint16             // bit i set: enumMux[i] passes every precheck
	off    uint16             // exactPt index of the slot's first survivor
	pruned [prWaste + 1]uint8 // mux points pruned per reason (at most len(enumMux))
}

// addSlot charges one slot's precheck classification: its whole mux
// loop is considered, and every pruned point lands in its bucket.
func (c *Counters) addSlot(sc *slotClass) {
	c.Considered += int64(len(enumMux))
	c.PrunedMux += int64(sc.pruned[prMux])
	c.PrunedGeom += int64(sc.pruned[prGeom])
	c.PrunedPage += int64(sc.pruned[prPage])
	c.PrunedOutput += int64(sc.pruned[prOutput])
	c.PrunedWaste += int64(sc.pruned[prWaste])
}

// buildCtx caches every organization-independent quantity of Build:
// resolved technology pointers, address/data widths, the H-tree's
// repeater and the bank-edge output driver. It is shared across the
// solves of a sweep that share one prescan: the exactPt memo and the
// slots of the table entry mats fill lazily with pure values through
// atomics, the walk orders sort once under a sync.Once, and everything
// else is immutable once Prescan returns.
//
// Its grid-sized scratch (the classification, the exact-point memo
// and the prescan's points) is held by value, and contexts come from
// ctxPool: newBuildCtx takes one and release returns it, so a solve
// allocates only the banks it returns (DESIGN.md §1.2d).
type buildCtx struct {
	spec Spec
	cell *tech.CellParams
	per  *tech.DeviceParams
	wire *tech.WireParams

	internalOut int
	addrBits    int
	dataBits    int

	// rep is the H-tree's repeater, sized once for the whole grid;
	// outDrv is the mat-stage table entry's bank-edge driver, or Build's.
	rep    circuit.Repeater
	outDrv circuit.Result

	// bnd holds the spec-level constants of the branch-and-bound
	// lower bounds (see bound.go).
	bnd bounder

	// marginFail memoizes mat.SignalMarginOK per enumRows slot so the
	// enumeration can charge DRAM margin failures without running
	// NewShared; all false for cell types the check never fails for.
	marginFail [len(enumRows)]bool

	// mats is the spec's entry in the process-wide mat-stage table
	// (mattable.go): the mat models, shard bounds and mux parts of the
	// grid, shared with every other solve of the same technology, RAM
	// type and ports. Nil for Build, which models its mat cold.
	mats *matStage

	// class holds the precheck classification of every (rows, cols)
	// slot (classifyGrid); the enumeration, the walks and the exact
	// point memo read survivors from its masks. Zero for Build.
	class [gridSlots]slotClass

	// cols holds the column-level half of the classification.
	cols [len(enumCols)]colClass

	// exactPt memoizes pointExact per precheck survivor of the grid,
	// slot by slot in grid order and ascending mux within a slot: the
	// solver's exact-minimum walks and the enumeration's final pruning
	// tier visit overlapping points, and the H-tree repeated-wire
	// solution inside is the only per-point cost worth skipping.
	// Racing solves of one shared prescan compute identical values, so
	// last-write-wins is benign. Prescan sizes it to the survivor count
	// over memo and clears it: the unbounded enumeration never calls
	// pointExact.
	exactPt []exactPoint

	// The grid-sized scratch behind exactPt and Prescanned.Points.
	memo   [gridSlots * len(enumMux)]exactPoint
	points [gridSlots]PrescanPoint

	// pointOf maps a feasible slot to its entry in points, whose
	// cheap shard bounds the bounded enumeration reuses.
	pointOf [gridSlots]uint8

	// byArea and byAcc are the exact-minimum walks' visiting orders
	// over points, each sorted once per prescan on first use.
	byArea, byAcc walkOrder

	// pre is the Prescanned that Prescan returns, held here so a
	// prescan allocates nothing of its own.
	pre Prescanned
}

// ctxPool recycles build contexts, scratch included, across solves.
var ctxPool = sync.Pool{New: func() any { return new(buildCtx) }}

// PrescanBytes is the heap one live Prescanned pins until its
// Release: its pooled build context, grid scratch included.
const PrescanBytes = int64(unsafe.Sizeof(buildCtx{}))

// newBuildCtx takes a context from ctxPool and sets it up for spec;
// the caller hands it back with release (Prescan's callers, through
// Prescanned.Release). The grid scratch is left as the last user left
// it: classifyGrid rewrites every slot's class, and Prescan clears the
// memo it uses, rewrites the points it returns and resets the walk
// orders.
func newBuildCtx(spec Spec) (*buildCtx, error) {
	if spec.CapacityBytes <= 0 || spec.OutputBits <= 0 {
		return nil, fmt.Errorf("array: bad spec: capacity %d, output %d", spec.CapacityBytes, spec.OutputBits)
	}
	t := spec.Tech
	cell := t.Cell(spec.RAM)
	per := t.Device(cell.PeripheralDevice)
	bc := ctxPool.Get().(*buildCtx)
	bc.spec = spec
	bc.cell = cell
	bc.per = per
	bc.wire = t.Wire(tech.WireGlobal)
	bc.internalOut = spec.OutputBits * max(1, spec.AssocReadout)
	bc.addrBits = int(math.Ceil(math.Log2(float64(spec.CapacityBytes*8)))) + 8 // address + control
	// Way select happens at the subbank edge, so only OutputBits
	// travel the data H-tree even when all ways are read out —
	// unless RouteAllWays (fast mode) ships every way to the edge.
	bc.dataBits = spec.OutputBits
	if spec.RouteAllWays {
		bc.dataBits = bc.internalOut
	}
	bc.rep = circuit.NewRepeater(per, bc.wire, spec.RepeaterSlack)
	bc.marginFail = [len(enumRows)]bool{}
	if cell.Kind == tech.Kind1T1C && spec.Ports <= 1 {
		for i, rows := range enumRows {
			bc.marginFail[i] = !mat.SignalMarginOK(t, spec.RAM, spec.Ports, rows)
		}
	}
	return bc, nil
}

// release drops every reference the last solve left on bc (its spec
// and technology, the table entry) and returns bc to ctxPool: pooled
// scratch pins nothing, and nothing a caller keeps points into it. bc
// must not be used afterwards.
func (bc *buildCtx) release() {
	bc.spec = Spec{}
	bc.cell, bc.per, bc.wire, bc.mats = nil, nil, nil, nil
	bc.rep, bc.outDrv = circuit.Repeater{}, circuit.Result{}
	bc.exactPt = nil
	bc.pre = Prescanned{}
	ctxPool.Put(bc)
}

// attach points bc at its spec's mat-stage table entry and takes the
// bank-edge driver the entry sized.
func (bc *buildCtx) attach() {
	bc.mats = matStageFor(bc.spec.Tech, bc.spec.RAM, bc.spec.Ports)
	bc.outDrv = bc.mats.outDrv
}

// bankDriver sizes the output driver at the bank edge.
func bankDriver(per *tech.DeviceParams) circuit.Result { return circuit.TristateDriver(per, 60e-15) }

// colClass is the column-level half of a slot's precheck: per mux
// degree, OrgFor's mats per subbank, and masks (bit i for enumMux[i]) of
// the mux points no wider than the columns, of those with mats per
// subbank below 1, and of those failing the page or else the output test.
type colClass struct {
	mps                  [len(enumMux)]int
	fit, none, page, out uint16
}

// classifyGrid classifies every slot of the grid into bc.class and lays
// out the survivor-indexed exactPt memo, returning the grid's survivor
// count. It reaches OrgFor and precheck's verdict on every grid triple,
// bucket for bucket (TestClassifyMatchesPrecheck), but runs the tests
// that depend only on the columns and the mux once per column, leaves
// only divisibility and waste per slot, and charges the buckets by
// popcount in the precheck's order: geometry, page, output, waste.
func (bc *buildCtx) classifyGrid() int {
	page := bc.spec.PageBits
	for ci, cols := range enumCols {
		cc := &bc.cols[ci]
		*cc = colClass{}
		colShift := bits.TrailingZeros(uint(4 * cols)) // log2 of the bits one mat senses
		// OrgFor's divisors are powers of two, so its divisions are
		// shifts here. They differ only for a negative dividend (an
		// overflowed capacity or output width), where both paths leave
		// a count below 1, rejected as geometry either way.
		for mi, mux := range enumMux {
			if mux > cols { // and so is every wider mux
				break
			}
			bit := uint16(1) << mi
			cc.fit |= bit
			mps := page >> colShift
			if page <= 0 {
				sh := colShift - mi // log2(4*cols/mux), at least 2
				mps = (bc.internalOut + 1<<sh - 1) >> sh
			}
			cc.mps[mi] = mps
			sensed := mps << colShift // mps*4*cols
			switch {
			case mps < 1:
				cc.none |= bit
			case page > 0 && sensed != page:
				cc.page |= bit
			case sensed>>mi < bc.internalOut: // nonnegative wherever mps <= mats
				cc.out |= bit
			}
		}
	}

	n := 0
	for slot := range bc.class {
		rows, cols := slotRC(slot)
		cc := &bc.cols[slot%len(enumCols)]
		mats := bc.matsOf(rows, cols)
		geom := cc.fit
		if mats >= 1 {
			geom = cc.none
			for m := cc.fit &^ cc.none; m != 0; m &= m - 1 {
				// mats >= 1, so the remainder is nonzero for mps > mats too.
				if _, r := quoRem(mats, cc.mps[bits.TrailingZeros16(m)]); r != 0 {
					geom |= m & -m
				}
			}
		}
		pg, out := cc.page&^geom, cc.out&^geom
		rest := cc.fit &^ (geom | pg | out)
		sc := &bc.class[slot]
		*sc = slotClass{off: uint16(n)}
		sc.pruned[prMux] = uint8(len(enumMux) - bits.OnesCount16(cc.fit))
		sc.pruned[prGeom] = uint8(bits.OnesCount16(geom))
		sc.pruned[prPage] = uint8(bits.OnesCount16(pg))
		sc.pruned[prOutput] = uint8(bits.OnesCount16(out))
		if int64(mats)*int64(4*rows*cols) > 2*bc.spec.CapacityBytes*8 {
			sc.pruned[prWaste] = uint8(bits.OnesCount16(rest))
		} else {
			sc.surv = rest
		}
		n += bits.OnesCount16(sc.surv)
	}
	return n
}

// matsOf returns OrgFor's mat count of a (rows, cols) slot: capacity
// bits over bits per mat, rounded up. Bits per mat is a power of two,
// so the division is a shift (see classifyGrid for negative dividends).
func (bc *buildCtx) matsOf(rows, cols int) int {
	bitsPerMat := int64(4 * rows * cols)
	return int((bc.spec.CapacityBytes*8 + bitsPerMat - 1) >> bits.TrailingZeros64(uint64(bitsPerMat)))
}

// quoRem returns m/d and m%d for m >= 0 and d >= 1, by a shift and a
// mask when d is a power of two, as a data array's mats per subbank
// usually is (a tag array's, tag bits times ways over a mat's output,
// rarely is).
func quoRem(m, d int) (q, r int) {
	if d&(d-1) == 0 {
		return m >> bits.TrailingZeros(uint(d)), m & (d - 1)
	}
	return m / d, m % d
}

// survivors rebuilds the slot's precheck survivors named by mask (a
// subset of the slot's survivor mask) into buf, in ascending mux
// order: the Orgs OrgFor returns for them.
func (bc *buildCtx) survivors(slot int, mask uint16, buf *[len(enumMux)]Org) []Org {
	if mask == 0 {
		return buf[:0]
	}
	rows, cols := slotRC(slot)
	cc := &bc.cols[slot%len(enumCols)]
	mats := bc.matsOf(rows, cols)
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		mi := bits.TrailingZeros16(mask)
		mps := cc.mps[mi]
		o := &buf[n]
		o.Rows, o.Cols, o.Mux = rows, cols, enumMux[mi]
		o.MatsPerSubbank, o.Mats = mps, mats
		o.Subbanks, _ = quoRem(mats, mps)
		n++
	}
	return buf[:n]
}

// precheck runs the cheap integer feasibility tests of Build on one
// organization, in order, without allocating error values.
func (bc *buildCtx) precheck(o Org) pruneReason {
	if o.MatsPerSubbank < 1 || o.Mats < 1 || o.Mux < 1 {
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
		if o.Mux < 1 {
			return fmt.Errorf("array: org needs a positive column mux degree: %v", o)
		}
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
	defer bc.release()
	if reason := bc.precheck(o); reason != prOK {
		return nil, bc.checkErr(o, reason)
	}
	bc.outDrv = bankDriver(bc.per)
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
// path evaluates a whole shard into the enumeration's buffer instead
// of allocating per point). The arithmetic is identical to the historical finish.
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
	htreeWire := bc.rep.Wire(htreeLen)
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
	segment := max(atomic, b.HtreeInDelay/max(1, float64(htreeWire.NumRep)))
	nStages := int(math.Ceil(b.AccessTime / max(segment, 1e-12)))
	if nStages > maxStages {
		nStages = maxStages
	}
	if nStages < 1 {
		nStages = 1
	}
	b.PipelineStages = nStages
	b.InterleaveCycle = max(b.AccessTime/float64(nStages), atomic)

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
