// Lower bounds on the mat model for branch-and-bound enumeration.
//
// The enumeration in internal/array discards (rows, cols, mux) grid
// points whose best possible bank falls outside the staged optimizer
// constraints, before any circuit modeling. This file supplies the
// mat-level ingredients at two fidelities:
//
//   - Closed-form bounds (CellDims, AccessLB and the tighter
//     NewShardLB): computable from the technology tables alone, used
//     to discard a whole (rows, cols) shard before NewShared runs.
//     AccessLB keeps only the provably monotone terms of the model —
//     the distributed wordline RC, the exact bitline development time
//     and the constant sense-amp resolution — and bounds everything
//     else (decoder, driver chains, column mux) by zero. NewShardLB
//     spends one wordline-chain sizing and a handful of gate-area
//     evaluations to recover most of what AccessLB and the bare cell
//     geometry give away: the exact wordline-driver delay, the
//     decoder's distribution-wire Elmore term, the wordline-driver
//     share of the decoder strip width, and the smallest possible
//     sense-amp strip height.
//
//   - Shared-level exact terms (MatAccessOf, MatAreaOf, MatDimsOf):
//     once a shard survives and its Shared exists, these reproduce
//     Build's access time and footprint for one mux degree exactly,
//     given its MuxParts, letting individual mux points be discarded
//     before BuildInto.
//
// Admissibility — bound <= fully-modeled value — is enforced by
// property tests in internal/array and internal/core; the derivation
// is documented in DESIGN.md §1.2e.
package mat

import (
	"math"

	"cactid/internal/circuit"
	"cactid/internal/tech"
)

// CellDims returns the per-cell width and height for a RAM type with
// the multiport cell growth applied — the geometric seed of both the
// mat model (NewShared) and the enumeration lower bounds. ports < 1
// means 1.
func CellDims(t *tech.Technology, ram tech.RAMType, ports int) (w, h float64) {
	cell := t.Cell(ram)
	f := t.F
	w = cell.CellWidth(f)
	h = cell.CellHeight(f)
	if ports < 1 {
		ports = 1
	}
	if extra := float64(ports - 1); extra > 0 {
		w += 2 * f * extra
		h += 2 * f * extra
	}
	return w, h
}

// AccessLB returns a lower bound on the mat access time computable
// without NewShared: the exact distributed wordline RC term, the exact
// closed-form bitline development time, and the constant sense-amp
// delay. The decoder, wordline-driver chain and column-mux delays are
// all nonnegative and are bounded by zero. The wordline and bitline
// expressions mirror NewShared term for term; admissibility is pinned
// by TestBoundAdmissibility.
func AccessLB(t *tech.Technology, ram tech.RAMType, ports, rows, cols int) float64 {
	cell := t.Cell(ram)
	acc := t.Device(cell.AccessDevice)
	kind := cell.Kind
	cw, ch := CellDims(t, ram, ports)
	saW := float64(cols) * cw
	saH := float64(rows) * ch

	// Wordline distributed RC (NewShared's tWLrc term; the driver
	// chain delay in front of it is bounded by zero).
	wlWire := t.WireOf(tech.WireLocal, tech.Copper)
	gatesPerCell := 2.0
	if kind != tech.KindStatic {
		gatesPerCell = 1.0
	}
	cGate := (acc.CgIdealPerWidth + acc.CFringePerWidth) * cell.AccessWidth
	cWL := wlWire.CPerLen*saW + float64(cols)*gatesPerCell*cGate
	rWL := wlWire.RPerLen * saW
	tWL := 0.38 * rWL * cWL

	// Bitline development: exact closed form (rows decide everything).
	blWire := t.WireOf(tech.WireLocal, cell.BitlineMaterial)
	attach := float64(rows)
	if kind == tech.Kind1T1C {
		attach = float64(rows) / 2
	}
	cPerCell := acc.CJuncPerWidth*cell.AccessWidth + contactCap
	cBL := blWire.CPerLen*saH + attach*cPerCell
	rBL := blWire.RPerLen * saH
	tBL := bitlineTime(cell, acc, cBL, rBL)
	return tWL + tBL + t.SenseAmpDelay
}

// bitlineTime reproduces NewShared's per-kind bitline development time
// from the closed-form capacitance — the same expressions, so the
// bound stays exact for this term. Cells NewShared would reject (a
// current-mode kind without a read current) bound to +Inf, pruning
// the shard NewShared would error on anyway.
func bitlineTime(cell *tech.CellParams, acc *tech.DeviceParams, cBL, rBL float64) float64 {
	switch cell.Kind {
	case tech.Kind1T1C:
		cs := cell.Cs
		rAcc := dramAccessRes(acc, cell)
		cShare := cs * cBL / (cs + cBL)
		return 2.3*rAcc*cShare + 0.38*rBL*cBL
	case tech.KindStatic:
		iCell := acc.IonN * cell.AccessWidth / 2
		return cBL*cell.SenseVmin/iCell + 0.38*rBL*cBL
	default:
		if cell.ReadCurrent <= 0 {
			return math.Inf(1)
		}
		return cBL*cell.SenseVmin/cell.ReadCurrent + 0.38*rBL*cBL
	}
}

// ShardLB carries the tightened closed-form lower bounds of one
// (rows, cols) shard: mat footprint and mat access time valid for
// every mux degree the shard can take. It costs one wordline-chain
// sizing plus a dozen gate-area evaluations — far below NewShared —
// and is markedly tighter than AccessLB and the bare cell geometry, so
// the enumeration uses it as a second bounding tier when the cheap
// tier fails to discard a shard.
type ShardLB struct {
	MatW   float64 // mat width lower bound (m)
	MatH   float64 // mat height lower bound (m)
	Access float64 // mat access-time lower bound (s)
}

// NewShardLB computes the tightened shard-level lower bounds. Exact
// terms (identical expressions to NewShared/Build): the wordline
// driver chain and distributed RC, the bitline development time, the
// sense-amp resolution, and the wordline-driver share of the decoder
// strip. Bounded terms: the decoder delay keeps only its
// distribution-wire Elmore component, the decoder strip width drops
// the predecoder/row-gate areas, and the sense strip takes the
// smallest area over every power-of-two mux degree up to cols (a
// superset of the feasible degrees, so the min is still a bound).
func NewShardLB(t *tech.Technology, ram tech.RAMType, ports, rows, cols int) ShardLB {
	cell := t.Cell(ram)
	acc := t.Device(cell.AccessDevice)
	per := t.Device(cell.PeripheralDevice)
	kind := cell.Kind
	isDRAM := kind == tech.Kind1T1C
	cw, ch := CellDims(t, ram, ports)
	saW := float64(cols) * cw
	saH := float64(rows) * ch

	// Wordline: driver chain plus distributed RC, both exact.
	wlWire := t.WireOf(tech.WireLocal, tech.Copper)
	gatesPerCell := 2.0
	if kind != tech.KindStatic {
		gatesPerCell = 1.0
	}
	cGate := (acc.CgIdealPerWidth + acc.CFringePerWidth) * cell.AccessWidth
	cWL := wlWire.CPerLen*saW + float64(cols)*gatesPerCell*cGate
	rWL := wlWire.RPerLen * saW
	minCin := 3 * (per.CgIdealPerWidth + per.CFringePerWidth) * 6 * per.Lphy
	wlChain := circuit.OptimalChain(per, minCin, cWL, 1)
	tWL := wlChain.Res.Delay + 0.38*rWL*cWL

	// Row decoder: the predecode distribution wire's Elmore term is
	// exact; the (nonnegative) gate-chain delays are bounded by zero.
	gWire := t.Wire(tech.WireSemiGlobal)
	preWireLen := saH / 2
	tDec := 0.38 * (gWire.RPerLen * preWireLen) * (gWire.CPerLen * preWireLen)

	// Bitline development: exact closed form (rows decide everything).
	blWire := t.WireOf(tech.WireLocal, cell.BitlineMaterial)
	attach := float64(rows)
	if isDRAM {
		attach = float64(rows) / 2
	}
	cPerCell := acc.CJuncPerWidth*cell.AccessWidth + contactCap
	cBL := blWire.CPerLen*saH + attach*cPerCell
	rBL := blWire.RPerLen * saH
	tBL := bitlineTime(cell, acc, cBL, rBL)

	// Width: two subarrays plus the wordline-driver rows of the
	// decoder strip (2*dec.Res.Area in NewShared is nonnegative and
	// bounded by zero; the driver term is exact).
	var widthBuf [16]float64
	dw := widthBuf[:0]
	for _, st := range wlChain.Stages {
		dw = append(dw, st.Wn, st.Wp)
	}
	wlDrvArea := circuit.GateArea(per, dw, ch)
	matW := 2*saW + float64(subarraysPerMat*rows)*wlDrvArea/(2*saH)

	// Height: two subarrays plus twice the smallest sense-amp strip
	// over every power-of-two mux degree.
	minStrip := math.Inf(1)
	for mux := 1; mux <= cols; mux <<= 1 {
		nSA := cols
		if !isDRAM {
			nSA = cols / mux
		}
		strip := 1.6 * circuit.SenseAmp(t, per, nSA, cw*float64(mux)).Area / saW
		if strip < minStrip {
			minStrip = strip
		}
	}
	matH := 2*saH + 2*minStrip

	return ShardLB{MatW: matW, MatH: matH, Access: tDec + tWL + tBL + t.SenseAmpDelay}
}

// SignalMarginOK reports whether a 1T1C subarray with the given row
// count develops enough differential signal — the exact test NewShared
// applies (ErrSignalMargin), evaluated from the closed-form bitline
// capacitance so enumeration can discard doomed shards without paying
// for the circuit model. The expressions mirror NewShared float op for
// float op, so the outcome is bit-identical to building and checking.
// Configurations NewShared rejects for other reasons first (cells
// without charge sensing, multiported DRAM) report true and are left
// for NewShared to classify.
func SignalMarginOK(t *tech.Technology, ram tech.RAMType, ports, rows int) bool {
	cell := t.Cell(ram)
	if cell.Kind != tech.Kind1T1C || ports > 1 {
		return true
	}
	acc := t.Device(cell.AccessDevice)
	_, ch := CellDims(t, ram, ports)
	saH := float64(rows) * ch
	blWire := t.WireOf(tech.WireLocal, cell.BitlineMaterial)
	attach := float64(rows) / 2
	cPerCell := acc.CJuncPerWidth*cell.AccessWidth + contactCap
	cBL := blWire.CPerLen*saH + attach*cPerCell
	cs := cell.Cs
	vSignal := (cell.Vdd / 2) * cs / (cs + cBL)
	return vSignal >= cell.SenseVmin
}

// MatAccessOf returns the exact mat access time Build would report for
// one mux degree, given its MuxParts, without building the model.
func (s *Shared) MatAccessOf(parts *MuxParts, mux int) float64 {
	tCol := 0.0
	if mux > 1 {
		tCol = parts.ColSel.Delay / 2
	}
	return s.tDecoder + s.tWordline + s.tBitline + parts.SA.Delay + tCol
}

// MatAreaOf returns the exact mat footprint Build would report for one
// mux degree, given its MuxParts.
func (s *Shared) MatAreaOf(parts *MuxParts) float64 {
	saStripH := 1.6 * parts.SA.Area / s.saWidth
	return s.width * (2*s.saHeight + 2*saStripH)
}

// MatDimsOf returns the exact mat width and height Build would report
// for one mux degree, given its MuxParts — the same floats, from the
// same operations, as BuildInto's geometry section. The bank-level
// exact point evaluation folds these into the H-tree floorplan.
func (s *Shared) MatDimsOf(parts *MuxParts) (w, h float64) {
	saStripH := 1.6 * parts.SA.Area / s.saWidth
	return s.width, 2*s.saHeight + 2*saStripH
}
