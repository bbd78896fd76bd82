// Branch-and-bound enumeration: admissible lower bounds on a bank's
// area and access time let whole (rows, cols) shards — and individual
// mux points — be discarded before the expensive mat modeling.
//
// The bounds come at two fidelities. Before mat.NewShared runs, a
// shard-level bound uses only closed-form cell geometry (mat.CellDims)
// and mat.AccessLB plus the provable H-tree delay floor
// (circuit.Repeater.DelayLBParts). Once a shard survives and its Shared
// exists, a point-level bound reuses the exact mux-dependent circuit
// results (the memoized mat.MuxParts) to reproduce the mat's access
// time and footprint exactly, leaving only the H-tree terms bounded.
//
// Both bounds are admissible — bound(point) <= fully-modeled metric —
// because every dropped term is nonnegative and the H-tree length
// satisfies (matsW+matsH)/2 >= sqrt(matsW*matsH) = sqrt(Mats*matArea)
// (AM-GM; the floorplan fold preserves the grid-cell product). The
// derivation and the byte-identity argument for the thresholds the
// solver feeds in live in DESIGN.md §1.2e; admissibility is pinned by
// property tests here and in internal/core.
package array

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"cactid/internal/mat"
)

// Limits are the pruning thresholds of one bounded enumeration, in
// data-bank units (area m^2, access time s). The zero-value semantics
// are intentionally unforgiving — use NoLimits for "no pruning".
type Limits struct {
	// MaxAreaLB discards a point when its area lower bound exceeds it.
	MaxAreaLB float64
	// MaxAccLB discards a point when its access-time lower bound
	// exceeds it — but only if the point's area lower bound exceeds
	// AreaGuard, so the bank-area argmin (which anchors the staged
	// filter's stage-1 minimum) provably survives.
	MaxAccLB  float64
	AreaGuard float64
}

// NoLimits disables all bound pruning (EnumerateContext semantics).
func NoLimits() Limits {
	inf := math.Inf(1)
	return Limits{MaxAreaLB: inf, MaxAccLB: inf, AreaGuard: inf}
}

func (l Limits) active() bool {
	return !math.IsInf(l.MaxAreaLB, 1) || !math.IsInf(l.MaxAccLB, 1)
}

// prune reports whether a point with the given lower bounds can be
// discarded without changing the staged filter's output.
func (l Limits) prune(areaLB, accLB float64) bool {
	return areaLB > l.MaxAreaLB || (accLB > l.MaxAccLB && areaLB > l.AreaGuard)
}

// bounder holds the spec-level constants of the lower bounds, computed
// once per prescan.
type bounder struct {
	cellW, cellH float64 // per-cell dimensions (ports-adjusted)
	// Provable H-tree delay floor: delay(L) >= max(htreeFixed +
	// htreeLin*L, htreePerLen*L). The affine branch dominates short
	// wires (repeater self-delay), the rate branch long ones (AM-GM).
	htreeFixed  float64
	htreeLin    float64
	htreePerLen float64
	wirePerLen  float64 // H-tree wire area per meter (addr+data tracks)
	fixedAcc    float64 // latches + output driver (exact, org-independent)
}

func newBounder(bc *buildCtx) bounder {
	cw, ch := mat.CellDims(bc.spec.Tech, bc.spec.RAM, bc.spec.Ports)
	fixed, lin, rate := bc.rep.DelayLBParts()
	return bounder{
		cellW:       cw,
		cellH:       ch,
		htreeFixed:  fixed,
		htreeLin:    lin,
		htreePerLen: rate,
		wirePerLen:  float64(bc.addrBits+bc.dataBits) * bc.wire.Pitch,
		fixedAcc:    2*30e-12 + bc.outDrv.Delay,
	}
}

// htreeDelayLB returns the provable floor on one H-tree traversal of
// the given length; monotone in the length, so it may be applied to
// any lower bound of the real length.
func (bd *bounder) htreeDelayLB(length float64) float64 {
	return max(bd.htreeFixed+bd.htreeLin*length, bd.htreePerLen*length)
}

// bankBounds assembles bank-level lower bounds from a mat-area lower
// bound and a mat-access lower bound: Mats mats plus the H-tree wire
// area, and the fixed path plus two H-tree traversals of at least the
// AM-GM length floor.
func (bd *bounder) bankBounds(mats int, matAreaLB, matAccLB float64) (areaLB, accLB float64) {
	matsArea := float64(mats) * matAreaLB
	htreeLen := math.Sqrt(matsArea)
	areaLB = matsArea + bd.wirePerLen*htreeLen
	accLB = bd.fixedAcc + 2*bd.htreeDelayLB(htreeLen) + matAccLB
	return areaLB, accLB
}

// shardBounds computes the cheap pre-NewShared lower bounds of a
// (rows, cols) shard: pure cell geometry for area, and wordline RC +
// bitline development + sense for access time. It is the first
// bounding tier — nearly free, loose.
func (bc *buildCtx) shardBounds(rows, cols int) (areaLB, accLB float64) {
	bd := &bc.bnd
	matW := 2 * float64(cols) * bd.cellW
	matH := 2 * float64(rows) * bd.cellH
	matAccLB := mat.AccessLB(bc.spec.Tech, bc.spec.RAM, bc.spec.Ports, rows, cols)
	return bd.bankBounds(bc.matsOf(rows, cols), matW*matH, matAccLB)
}

// shardBoundsTight computes the tightened shard-level lower bounds
// (mat.NewShardLB): exact wordline chain, decoder-wire Elmore term,
// wordline-driver strip width and minimum sense-strip height. It
// costs roughly a quarter of NewShared, so the spec-independent mat
// part is kept per (rows, cols) slot in the mat-stage table, where
// every later walk, enumeration and solve of the same technology
// reuses it; the enumeration consults it only after the cheap tier
// fails to discard a shard.
func (bc *buildCtx) shardBoundsTight(rows, cols int) (areaLB, accLB float64) {
	lb := bc.mats.shardLBFor(rows, cols)
	return bc.bnd.bankBounds(bc.matsOf(rows, cols), lb.MatW*lb.MatH, lb.Access)
}

// pointBoundsLite computes per-point lower bounds before mat.NewShared
// exists, from the memoized shard lower bound alone: the point's own
// floorplan fold (identical to finishInto's) applied to the bounded mat
// dimensions yields an H-tree length floor that keeps the perimeter
// term — much tighter than the shard tiers' AM-GM-only floor whenever
// the fold is lopsided. Admissible by monotonicity: the real mat is at
// least lb.MatW by lb.MatH, rounding-to-nearest is monotone, and
// htreeDelayLB is a floor of the real repeated-wire delay.
func (bc *buildCtx) pointBoundsLite(lb *mat.ShardLB, o Org) (areaLB, accLB float64) {
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
	matsArea := float64(o.Mats) * (lb.MatW * lb.MatH)
	lenLB := (float64(gridX)*lb.MatW + float64(gridY)*lb.MatH) / 2
	if s := math.Sqrt(matsArea); s > lenLB {
		lenLB = s
	}
	bd := &bc.bnd
	areaLB = matsArea + bd.wirePerLen*lenLB
	accLB = bd.fixedAcc + 2*bd.htreeDelayLB(lenLB) + lb.Access
	return areaLB, accLB
}

// pointBounds computes the post-NewShared lower bounds of one mux
// point: the mat's access time and footprint are exact (via the
// memoized MuxParts); only the H-tree terms remain bounded.
func (bc *buildCtx) pointBounds(sh *mat.Shared, parts *mat.MuxParts, o Org) (areaLB, accLB float64) {
	return bc.bnd.bankBounds(o.Mats, sh.MatAreaOf(parts), sh.MatAccessOf(parts, o.Mux))
}

// pointExact computes the exact bank area and access time of one mux
// point — the same floats, from the same operations, as finishInto —
// without assembling the Bank: exact mat dims fold into the exact
// floorplan grid, and the H-tree repeated wire is solved for real
// instead of bounded. It is the final (still admissible: the "bound"
// equals the value) pruning tier; only points that pass it pay for
// BuildInto and finishInto. The AM-GM tier in pointBounds never
// exceeds it, so running it second filters the same final set while
// skipping the repeated-wire solution for far-out points. o must be a
// precheck survivor of a prescanned grid: its memo slot is the slot's
// first survivor index plus the survivors below it in mux order.
func (bc *buildCtx) pointExact(sh *mat.Shared, parts *mat.MuxParts, o Org) (area, acc float64) {
	sc := &bc.class[slotOf(o.Rows, o.Cols)]
	below := sc.surv & (1<<bits.TrailingZeros(uint(o.Mux)) - 1)
	pm := &bc.exactPt[int(sc.off)+bits.OnesCount16(below)]
	if a := pm.area.Load(); a != 0 {
		return math.Float64frombits(a), math.Float64frombits(pm.acc.Load())
	}
	mw, mh := sh.MatDimsOf(parts)

	// Floorplan fold — identical to finishInto.
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
	matsW := float64(gridX) * mw
	matsH := float64(gridY) * mh

	htreeLen := (matsW + matsH) / 2
	d, ra := bc.rep.DelayArea(htreeLen)

	const latchDelay = 30e-12
	acc = latchDelay + d + sh.MatAccessOf(parts, o.Mux) + d + bc.outDrv.Delay + latchDelay

	matsArea := float64(o.Mats) * sh.MatAreaOf(parts)
	wireArea := float64(bc.addrBits+bc.dataBits) * bc.wire.Pitch * htreeLen
	repArea := float64(bc.addrBits)*ra + float64(bc.dataBits)*ra
	area = matsArea + wireArea + repArea
	pm.acc.Store(math.Float64bits(acc))
	pm.area.Store(math.Float64bits(area))
	return area, acc
}

// exactPoint is one memoized pointExact result, held as the bits of
// its two floats. The area is stored last and loaded first, so nonzero
// area bits publish the entry: a reader that sees them also sees the
// access time (racing writers store identical values). No bank has a
// zero area, so zero bits mean "not computed yet".
type exactPoint struct{ area, acc atomic.Uint64 }

// PrescanPoint summarizes one feasible (rows, cols) shard of the
// enumeration grid: its first precheck-passing mux point and the
// shard-level lower bounds shared by every mux point in it.
type PrescanPoint struct {
	Org    Org
	AreaLB float64 // data-bank area lower bound (m^2)
	AccLB  float64 // data-bank access-time lower bound (s)
}

// Prescanned is the result of Prescan: the feasibility/bounds summary
// of one spec's enumeration grid plus the (reusable) build context
// behind it, so probe builds and the bounded enumeration share the
// memoized exact point metrics and the spec's mat-stage table entry
// (shard bounds, mux parts and mat models) instead of recomputing
// them per call. MinArea, MinAccessWithin, Build and Enumerate may run
// on several goroutines at once: the solves of a sweep that ask for
// the same data array share one prescan. It lives in pooled scratch:
// once every such call has returned, its owner calls Release once,
// after which neither it nor its Points may be read.
type Prescanned struct {
	bc *buildCtx
	// Points holds one entry per (rows, cols) pair with at least one
	// feasible mux point, in grid order.
	Points []PrescanPoint
}

// Prescan classifies the enumeration grid with integer prechecks and
// cheap closed-form bounds only — no circuit modeling — returning one
// entry per (rows, cols) pair that has at least one feasible mux
// point, in grid order. The solver uses it to pick deterministic
// probe points and to floor the feasible set's minimum area when
// deriving pruning thresholds (see core's bounded explore). The
// classification (one survivor mask per slot) is retained on the
// build context, so a following Enumerate reuses it instead of
// rescanning the grid.
func Prescan(spec Spec) (*Prescanned, error) {
	bc, err := newBuildCtx(spec)
	if err != nil {
		return nil, err
	}
	bc.attach()
	bc.bnd = newBounder(bc)
	bc.exactPt = bc.memo[:bc.classifyGrid()]
	clear(bc.exactPt)

	// Shards that cannot develop the DRAM sense signal have no feasible
	// point at all; excluding them keeps the prescan's area floor tight
	// (the floor feeds the solver's probe provability check). Their
	// classification still feeds the enumeration's counters.
	feasible := func(slot int) bool {
		return bc.class[slot].surv != 0 && !bc.marginFail[slot/len(enumCols)]
	}
	n := 0
	for slot := range bc.class {
		if !feasible(slot) {
			continue
		}
		var buf [len(enumMux)]Org
		surv := bc.class[slot].surv
		first := bc.survivors(slot, surv&-surv, &buf)[0]
		areaLB, accLB := bc.shardBounds(first.Rows, first.Cols)
		bc.points[n] = PrescanPoint{Org: first, AreaLB: areaLB, AccLB: accLB}
		bc.pointOf[slot] = uint8(n)
		n++
	}
	bc.byArea, bc.byAcc = walkOrder{}, walkOrder{}
	bc.pre = Prescanned{bc: bc, Points: bc.points[:n:n]}
	return &bc.pre, nil
}

// Release hands the prescan's build context and scratch back for the
// next solve. Call it once, after the last Enumerate, Build or walk:
// afterwards neither p nor its Points may be read. The banks Enumerate
// and Build returned never point into the scratch: Build's stay valid,
// and Enumerate's until their own Release.
func (p *Prescanned) Release() {
	if p.bc != nil {
		p.bc.release()
	}
}

// walkOrder is one visiting order over a prescan's points, sorted
// once on first use by whichever solve walks first.
type walkOrder struct {
	once sync.Once
	idx  [gridSlots]uint8
}

// sorted returns the indices of p.Points in ascending key order, grid
// order breaking ties, sorting them into w on the first call. It
// insertion-sorts the indices beside a local copy of their keys: a
// point moves left only past strictly larger keys, so the sort is
// stable, and its comparator is <, the walks' own test, so the order
// is that of any stable sort by that comparison.
func (p *Prescanned) sorted(w *walkOrder, key func(*PrescanPoint) float64) []uint8 {
	w.once.Do(func() {
		var keys [gridSlots]float64
		for i := range p.Points {
			k := key(&p.Points[i])
			j := i
			for ; j > 0 && k < keys[j-1]; j-- {
				keys[j], w.idx[j] = keys[j-1], w.idx[j-1]
			}
			keys[j], w.idx[j] = k, uint8(i)
		}
	})
	return w.idx[:len(p.Points)]
}

// ByAccess returns the indices of p.Points in ascending cheap
// access-bound order, grid order breaking ties: the order the
// access-time walk visits shards in and the solver tries tag probes
// in. It is sorted once per prescan; callers must not modify it.
func (p *Prescanned) ByAccess() []uint8 {
	return p.sorted(&p.bc.byAcc, func(pt *PrescanPoint) float64 { return pt.AccLB })
}

// byArea is ByAccess for the cheap area bound: the area walk's order.
func (p *Prescanned) byArea() []uint8 {
	return p.sorted(&p.bc.byArea, func(pt *PrescanPoint) float64 { return pt.AreaLB })
}

// MinArea returns the exact minimum bank area over every feasible
// point of the grid — the same float a full enumeration's smallest
// bank would report. The walk visits shards in ascending cheap
// area-bound order, skips those whose tightened bound cannot beat the
// best exact area seen, and stops as soon as the cheap bound alone
// proves no remaining shard can improve it; every model it does build
// (mat.Shared, MuxParts) lands in the mat-stage table, where the
// following Enumerate reuses it. ok is false when no point builds.
func (p *Prescanned) MinArea() (best float64, ok bool) {
	bc := p.bc
	pts := p.Points
	best = math.Inf(1)
	for _, i := range p.byArea() {
		if pts[i].AreaLB >= best {
			break
		}
		rows, cols := pts[i].Org.Rows, pts[i].Org.Cols
		if aT, _ := bc.shardBoundsTight(rows, cols); aT >= best {
			continue
		}
		lb := bc.mats.shardLBFor(rows, cols)
		var sh *mat.Shared
		var buf [len(enumMux)]Org
		slot := slotOf(rows, cols)
		for _, o := range bc.survivors(slot, bc.class[slot].surv, &buf) {
			if aL, _ := bc.pointBoundsLite(lb, o); aL >= best {
				continue
			}
			if sh == nil {
				var err error
				if sh, err = bc.mats.sharedFor(rows, cols); err != nil {
					break // contributes no solutions; nothing to minimize
				}
			}
			parts := bc.mats.muxPartsFor(sh, cols, o.Mux)
			if a, _ := bc.pointExact(sh, parts, o); a < best {
				best = a
				ok = true
			}
		}
	}
	return best, ok
}

// MinAccessWithin returns the exact minimum bank access time over the
// feasible points whose assembled solution area — nb*(area+tagArea),
// the same floats the solver's assemble computes — is at most
// areaWindow (pass +Inf for an unconstrained minimum). The walk visits
// shards in ascending cheap access-bound order with the same lazy
// tiering as MinArea; window exclusion uses the area bounds (area >=
// bound, and the assembly arithmetic is monotone, so a shard whose
// bounded solution area exceeds the window holds no members). ok is
// false when no point is in the window.
func (p *Prescanned) MinAccessWithin(nb, tagArea, areaWindow float64) (best float64, ok bool) {
	bc := p.bc
	pts := p.Points
	best = math.Inf(1)
	for _, i := range p.ByAccess() {
		if pts[i].AccLB >= best {
			break
		}
		rows, cols := pts[i].Org.Rows, pts[i].Org.Cols
		if nb*(pts[i].AreaLB+tagArea) > areaWindow {
			continue
		}
		aT, accT := bc.shardBoundsTight(rows, cols)
		if accT >= best || nb*(aT+tagArea) > areaWindow {
			continue
		}
		lb := bc.mats.shardLBFor(rows, cols)
		var sh *mat.Shared
		var buf [len(enumMux)]Org
		slot := slotOf(rows, cols)
		for _, o := range bc.survivors(slot, bc.class[slot].surv, &buf) {
			aL, accL := bc.pointBoundsLite(lb, o)
			if accL >= best || nb*(aL+tagArea) > areaWindow {
				continue
			}
			if sh == nil {
				var err error
				if sh, err = bc.mats.sharedFor(rows, cols); err != nil {
					break
				}
			}
			parts := bc.mats.muxPartsFor(sh, cols, o.Mux)
			a, acc := bc.pointExact(sh, parts, o)
			if nb*(a+tagArea) <= areaWindow && acc < best {
				best = acc
				ok = true
			}
		}
	}
	return best, ok
}

// Build evaluates one organization against the prescan's shared build
// context — same result as the package-level Build, but reusing the
// memoized mat models and mux parts (probe builds hit the same grid
// slots the enumeration will). An organization off the enumeration
// grid has no table slot, so it is handed to the package-level Build.
func (p *Prescanned) Build(o Org) (*Bank, error) {
	bc := p.bc
	if !onGrid(o) {
		return Build(bc.spec, o)
	}
	if reason := bc.precheck(o); reason != prOK {
		return nil, bc.checkErr(o, reason)
	}
	sh, err := bc.mats.sharedFor(o.Rows, o.Cols)
	if err != nil {
		return nil, err
	}
	m := new(mat.Mat)
	if err := sh.BuildInto(o.Mux, bc.mats.muxPartsFor(sh, o.Cols, o.Mux), m); err != nil {
		return nil, err
	}
	m.Tech = bc.spec.Tech // the caller's, not the table's private copy
	return bc.finish(o, m), nil
}

// Enumerate is EnumerateContext with branch-and-bound pruning against
// lim: grid points whose lower bounds violate the limits are discarded
// before mat modeling and land in the PrunedBoundShard /
// PrunedBoundPoint counter buckets. With NoLimits() it matches
// EnumerateContext output exactly. The output and counters are a
// deterministic function of (spec, lim), and for limits derived by the
// solver's probe scheme the surviving banks are exactly those the
// staged filter could ever keep (DESIGN.md §1.2e). The banks live in
// a pooled buffer: the caller defers Release right after the call, and
// copies out any bank it keeps. A cancelled enumeration returns an
// empty Enumerated.
func (p *Prescanned) Enumerate(ctx context.Context, lim Limits) (Enumerated, Counters, error) {
	return enumerateWith(ctx, p.bc, lim)
}
