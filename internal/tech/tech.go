// Package tech provides the technology models that underlie CACTI-D:
// ITRS-style device projections (High Performance, Low Standby Power
// and long-channel device types), wire RC
// projections following Ron Ho's data, and memory-cell characteristics
// for SRAM, logic-process DRAM (LP-DRAM) and commodity DRAM
// (COMM-DRAM).
//
// All quantities use SI units: meters, seconds, volts, amps, farads,
// ohms, joules, watts. Feature size F is expressed in meters.
//
// The data tables cover the four ITRS nodes used by the paper
// (90, 65, 45 and 32 nm, spanning ITRS years 2004-2013). Arbitrary
// intermediate nodes (for example the 78 nm node of the Micron DDR3
// validation in Table 2) are produced by log-linear interpolation of
// the bracketing nodes.
package tech

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Node identifies a process technology node by its feature size in
// nanometers (90, 65, 45, 32; intermediate values are interpolated).
type Node int

// The ITRS nodes with first-class data tables.
const (
	Node90 Node = 90
	Node65 Node = 65
	Node45 Node = 45
	Node32 Node = 32
)

// FeatureSize returns the feature size F in meters.
func (n Node) FeatureSize() float64 { return float64(n) * 1e-9 }

func (n Node) String() string { return fmt.Sprintf("%dnm", int(n)) }

// DeviceType enumerates the transistor families modeled by CACTI-D.
type DeviceType int

const (
	// HP is the ITRS High Performance device: short gate, thin oxide,
	// low Vth, low VDD, very leaky. CV/I improves ~17%/year.
	HP DeviceType = iota
	// LSTP is the ITRS Low Standby Power device: long gate, thick
	// oxide, high Vth; subthreshold leakage pinned near 10 pA/um.
	// Gate lengths lag HP by four years.
	LSTP
	// HPLongChannel is a long-channel variant of HP trading speed for
	// roughly an order of magnitude less leakage (used for SRAM cells
	// and the peripheral circuitry of SRAM and LP-DRAM, as in the
	// 65 nm Intel Xeon L3).
	HPLongChannel
	// LPDRAMAccess is the intermediate-oxide access transistor of a
	// logic-process embedded DRAM cell.
	LPDRAMAccess
	// COMMDRAMAccess is the thick (conventional) oxide access
	// transistor of a commodity DRAM cell.
	COMMDRAMAccess
	numDeviceTypes
)

func (d DeviceType) String() string {
	switch d {
	case HP:
		return "ITRS-HP"
	case LSTP:
		return "ITRS-LSTP"
	case HPLongChannel:
		return "ITRS-HP-long-channel"
	case LPDRAMAccess:
		return "LP-DRAM-access"
	case COMMDRAMAccess:
		return "COMM-DRAM-access"
	}
	return fmt.Sprintf("DeviceType(%d)", int(d))
}

// DeviceParams holds the per-unit-width electrical parameters of a
// transistor family at one technology node. Width-dependent values are
// normalized per meter of gate width so that a device of width W has,
// for example, gate capacitance CgPerWidth*W.
type DeviceParams struct {
	Type DeviceType

	Vdd  float64 // supply voltage (V)
	Vth  float64 // threshold voltage (V)
	Lphy float64 // physical gate length (m)

	// Capacitances per meter of device width.
	CgIdealPerWidth float64 // intrinsic gate capacitance (F/m)
	CFringePerWidth float64 // fringe + overlap capacitance (F/m)
	CJuncPerWidth   float64 // source/drain junction capacitance (F/m)

	// Drive and leakage currents per meter of device width.
	IonN  float64 // NMOS on-current (A/m)
	IoffN float64 // NMOS subthreshold leakage at Vgs=0 (A/m)
	IoffP float64 // PMOS subthreshold leakage (A/m)
	IgOn  float64 // gate leakage (A/m)

	// Effective switching resistances times width (ohm*m): the
	// on-resistance of a device of width W is R*PerWidth / W.
	RnOnPerWidth float64
	RpOnPerWidth float64
}

// FO4 returns the fanout-of-4 inverter delay implied by the device
// parameters; a convenient sanity metric and the unit in which
// pipeline-depth limits are expressed.
func (d *DeviceParams) FO4() float64 {
	cg := d.CgIdealPerWidth + d.CFringePerWidth
	// Inverter with PMOS 2x NMOS: input cap 3*cg*W, drive R = Rn/W.
	// FO4 ~ R * (Cself + 4*Cin) with Cself ~ 3*cjunc*W.
	return 0.69 * d.RnOnPerWidth * (3*d.CJuncPerWidth + 4*3*cg) / 3
}

// WireClass enumerates interconnect layers with distinct geometries.
type WireClass int

const (
	// WireLocal is minimum-pitch metal used inside subarrays
	// (for example bitlines and local wordline straps).
	WireLocal WireClass = iota
	// WireSemiGlobal is intermediate-level metal used for routing
	// within a mat and across subbanks (2x minimum pitch).
	WireSemiGlobal
	// WireGlobal is top-level metal used by the H-tree distribution
	// networks (4x minimum pitch).
	WireGlobal
	numWireClasses
)

func (w WireClass) String() string {
	switch w {
	case WireLocal:
		return "local"
	case WireSemiGlobal:
		return "semi-global"
	case WireGlobal:
		return "global"
	}
	return fmt.Sprintf("WireClass(%d)", int(w))
}

// WireMaterial selects the conductor. Commodity DRAM processes use
// tungsten bitlines (cheap, refractory, but ~3x the resistivity of
// copper); everything else is copper.
type WireMaterial int

const (
	Copper WireMaterial = iota
	Tungsten
)

func (m WireMaterial) String() string {
	if m == Tungsten {
		return "tungsten"
	}
	return "copper"
}

// WireParams holds the RC properties of one wire class at one node.
type WireParams struct {
	Class    WireClass
	Material WireMaterial
	Pitch    float64 // wire pitch (m)
	RPerLen  float64 // resistance per length (ohm/m)
	CPerLen  float64 // capacitance per length (F/m)
}

// RC returns the distributed RC product per length squared (s/m^2),
// the figure of merit for unrepeated wire delay (0.38*R*C*L^2).
func (w *WireParams) RC() float64 { return w.RPerLen * w.CPerLen }

// RAMType enumerates the three memory technologies CACTI-D models.
type RAMType int

const (
	SRAM RAMType = iota
	LPDRAM
	COMMDRAM
	// STTRAM is a spin-transfer-torque magnetic RAM cell (1T-1MTJ):
	// non-volatile, non-destructive current-mode read, slow and
	// energy-hungry writes, finite write endurance. Modeled by the
	// stt-ram provider.
	STTRAM
	// PCM is a phase-change memory cell: non-volatile with the same
	// asymmetric-write shape as STT-RAM but denser, slower to write
	// and with far lower endurance. Modeled by the pcm provider.
	PCM
	// GAINCELL is a logic-compatible 2T gain cell: a write transistor
	// charges a storage node that gates a separate read transistor, so
	// reads are non-destructive current-mode, but the node leaks and
	// the array needs retention-driven refresh like the paper's
	// LP-DRAM path. Modeled by the gain-cell provider.
	GAINCELL
	numRAMTypes
)

// NumRAMTypes is the number of RAMType values (for bounds checks in
// packages that receive a RAMType over the wire).
const NumRAMTypes = int(numRAMTypes)

func (r RAMType) String() string {
	switch r {
	case SRAM:
		return "SRAM"
	case LPDRAM:
		return "LP-DRAM"
	case COMMDRAM:
		return "COMM-DRAM"
	case STTRAM:
		return "STT-RAM"
	case PCM:
		return "PCM"
	case GAINCELL:
		return "GAIN-CELL"
	}
	return fmt.Sprintf("RAMType(%d)", int(r))
}

// IsDRAM reports whether the cell is a 1T1C DRAM cell (destructive
// readout, refresh, boosted wordline).
func (r RAMType) IsDRAM() bool { return r == LPDRAM || r == COMMDRAM }

// CellKind classifies the circuit behavior of a storage cell — the
// property the mat model branches on. The ITRS RAM types map onto
// KindStatic (SRAM) and Kind1T1C (LP-DRAM, COMM-DRAM); the emerging
// technology providers add the other two kinds behind the same
// interface.
type CellKind int

const (
	// KindStatic is a differential static cell (6T SRAM): voltage-mode
	// read through a two-device stack, no refresh, no wordline boost.
	KindStatic CellKind = iota
	// Kind1T1C is a destructive-read DRAM cell: charge-redistribution
	// read with a signal-margin limit, boosted wordline, full restore
	// after every read and retention-driven refresh.
	Kind1T1C
	// KindGainCell is a 2T/3T gain cell: the storage node gates a
	// separate read device, so reads are non-destructive current-mode,
	// but the node leaks and needs retention-driven refresh
	// (re-read + write back).
	KindGainCell
	// KindNVM is a resistive non-volatile cell (STT-RAM, PCM):
	// non-destructive current-mode read, no refresh, and asymmetric
	// writes — an extra per-cell switching pulse and energy, with
	// finite write endurance.
	KindNVM
)

func (k CellKind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case Kind1T1C:
		return "1T1C"
	case KindGainCell:
		return "gain-cell"
	case KindNVM:
		return "nvm"
	}
	return fmt.Sprintf("CellKind(%d)", int(k))
}

// DestructiveRead reports whether a read wipes the cell and must be
// followed by a restore (only the 1T1C DRAM cell).
func (k CellKind) DestructiveRead() bool { return k == Kind1T1C }

// NeedsRefresh reports whether the cell loses state over time and the
// array must schedule retention-driven refresh.
func (k CellKind) NeedsRefresh() bool { return k == Kind1T1C || k == KindGainCell }

// CellParams describes the storage cell of one RAM type at one node.
// This is the data behind Table 1 of the paper.
type CellParams struct {
	RAM RAMType

	// Kind selects the mat model's circuit branches (read mechanism,
	// restore, refresh, write asymmetry). The zero value is
	// KindStatic.
	Kind CellKind

	AreaF2     float64 // cell area in F^2 (146 SRAM, 30 LP-DRAM, 6 COMM-DRAM)
	WidthF     float64 // cell width along the wordline, in F
	HeightF    float64 // cell height along the bitline, in F
	Vdd        float64 // cell supply / storage voltage (V)
	Vpp        float64 // boosted wordline voltage (V); 0 for SRAM
	Cs         float64 // storage capacitance (F); 0 for SRAM
	RetentionT float64 // refresh period (s); +Inf for SRAM

	AccessDevice     DeviceType // cell access transistor family
	PeripheralDevice DeviceType // peripheral/global circuitry family
	BitlineMaterial  WireMaterial

	// AccessWidth is the cell access transistor width (m) and
	// AccessIoff its leakage, both resolved against the node's
	// device table by Technology.
	AccessWidth float64

	// SenseVmin is the minimum bitline differential required by the
	// sense amplifier (V).
	SenseVmin float64

	// ReadCurrent is the absolute cell read current (A) for
	// current-mode readout cells (KindGainCell: the read transistor's
	// drive; KindNVM: the current through the storage element). Zero
	// for voltage-mode cells.
	ReadCurrent float64

	// WritePulse is the extra per-cell switching time a write needs
	// beyond the bitline swing (s) — the STT/PCM programming pulse.
	// Zero for cells with symmetric writes.
	WritePulse float64

	// EWriteCell is the per-cell switching energy of a write (J),
	// added on top of the bitline charging energy. Zero for charge-
	// based cells.
	EWriteCell float64

	// Endurance is the cell's write endurance in cycles; zero means
	// effectively unlimited.
	Endurance float64
}

// CellArea returns the cell area in m^2 for feature size f (meters).
func (c *CellParams) CellArea(f float64) float64 { return c.AreaF2 * f * f }

// CellWidth returns the physical cell width (m) at feature size f.
func (c *CellParams) CellWidth(f float64) float64 { return c.WidthF * f }

// CellHeight returns the physical cell height (m) at feature size f.
func (c *CellParams) CellHeight(f float64) float64 { return c.HeightF * f }

// Technology bundles every table CACTI-D needs at one node: the device
// families, the wire classes, and the three cell types. Construct one
// with New.
type Technology struct {
	Node    Node
	F       float64 // feature size (m)
	Devices [numDeviceTypes]DeviceParams
	Wires   [numWireClasses]WireParams
	// TungstenWires mirrors Wires with tungsten conductors
	// (used for COMM-DRAM bitlines).
	TungstenWires [numWireClasses]WireParams
	// Cells is indexed by RAMType. The ITRS slots (SRAM, LP-DRAM,
	// COMM-DRAM) are always populated; emerging-technology slots are
	// filled by their providers (an unpopulated slot has AreaF2 0).
	Cells [numRAMTypes]CellParams

	// SenseAmpDelay and SenseAmpEnergy are fixed per-sense-amp
	// figures at this node (latch-type amplifier).
	SenseAmpDelay  float64 // s
	SenseAmpEnergy float64 // J per activation
}

// Device returns the parameters of the requested device family.
func (t *Technology) Device(d DeviceType) *DeviceParams { return &t.Devices[d] }

// Wire returns copper wire parameters for the requested class.
func (t *Technology) Wire(c WireClass) *WireParams { return &t.Wires[c] }

// WireOf returns wire parameters for the requested class and material.
func (t *Technology) WireOf(c WireClass, m WireMaterial) *WireParams {
	if m == Tungsten {
		return &t.TungstenWires[c]
	}
	return &t.Wires[c]
}

// Cell returns the cell parameters for the requested RAM type.
func (t *Technology) Cell(r RAMType) *CellParams { return &t.Cells[r] }

// New returns the Technology for the requested node. Nodes between
// 32 and 90 nm that are not ITRS nodes are log-linearly interpolated
// from the bracketing tables (the paper does this implicitly for its
// 78 nm Micron validation). New panics for nodes outside [32, 90].
func New(n Node) *Technology {
	if n < Node32 || n > Node90 {
		panic(fmt.Sprintf("tech: node %d outside supported range [32,90] nm", int(n)))
	}
	if t, ok := baseTechnologies[n]; ok {
		c := *t
		return &c
	}
	c := *interpolated(n)
	return &c
}

// interpolated memoizes interpolate: building a Technology for a
// non-ITRS node walks every device, wire and cell table through
// log-space mixing, which dominates repeated solves at such nodes.
// Technology holds only scalar arrays, so the value copy New hands
// out is a full deep copy and callers can never alias the memo.
var interpMemo struct {
	sync.RWMutex
	m map[Node]*Technology // guarded by RWMutex
}

func interpolated(n Node) *Technology {
	interpMemo.RLock()
	t, ok := interpMemo.m[n]
	interpMemo.RUnlock()
	if ok {
		return t
	}
	t = interpolate(n)
	interpMemo.Lock()
	if prev, ok := interpMemo.m[n]; ok {
		t = prev // a racing builder won; keep one canonical entry
	} else {
		if interpMemo.m == nil {
			interpMemo.m = make(map[Node]*Technology)
		}
		interpMemo.m[n] = t
	}
	interpMemo.Unlock()
	return t
}

// nodesSorted returns the base nodes in descending feature size.
func nodesSorted() []Node {
	ns := make([]Node, 0, len(baseTechnologies))
	for n := range baseTechnologies {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] > ns[j] })
	return ns
}

// bracket returns the base nodes surrounding n (lo has the larger
// feature size) and the interpolation weight in log-feature-size
// space — the shared seed of every table interpolation, including the
// provider cell tables.
func bracket(n Node) (lo, hi Node, w float64) {
	ns := nodesSorted()
	for i := 0; i+1 < len(ns); i++ {
		if ns[i] >= n && n >= ns[i+1] {
			lo, hi = ns[i], ns[i+1]
			break
		}
	}
	w = (math.Log(float64(lo)) - math.Log(float64(n))) /
		(math.Log(float64(lo)) - math.Log(float64(hi)))
	return lo, hi, w
}

// mixAt log-linearly interpolates a positive quantity with weight w,
// falling back to linear mixing when either endpoint is nonpositive.
func mixAt(w, x, y float64) float64 {
	if x <= 0 || y <= 0 {
		return x + w*(y-x)
	}
	return math.Exp(math.Log(x) + w*(math.Log(y)-math.Log(x)))
}

// mixCell interpolates every field of a cell table entry; the
// discrete fields (kind, device families, material) come from the
// larger-feature-size endpoint.
func mixCell(ca, cb CellParams, w float64) CellParams {
	mix := func(x, y float64) float64 { return mixAt(w, x, y) }
	return CellParams{
		RAM:              ca.RAM,
		Kind:             ca.Kind,
		AreaF2:           mix(ca.AreaF2, cb.AreaF2),
		WidthF:           mix(ca.WidthF, cb.WidthF),
		HeightF:          mix(ca.HeightF, cb.HeightF),
		Vdd:              mix(ca.Vdd, cb.Vdd),
		Vpp:              mix(ca.Vpp, cb.Vpp),
		Cs:               mix(ca.Cs, cb.Cs),
		RetentionT:       mixRetention(ca.RetentionT, cb.RetentionT, w),
		AccessDevice:     ca.AccessDevice,
		PeripheralDevice: ca.PeripheralDevice,
		BitlineMaterial:  ca.BitlineMaterial,
		AccessWidth:      mix(ca.AccessWidth, cb.AccessWidth),
		SenseVmin:        mix(ca.SenseVmin, cb.SenseVmin),
		ReadCurrent:      mix(ca.ReadCurrent, cb.ReadCurrent),
		WritePulse:       mix(ca.WritePulse, cb.WritePulse),
		EWriteCell:       mix(ca.EWriteCell, cb.EWriteCell),
		Endurance:        mix(ca.Endurance, cb.Endurance),
	}
}

// interpolate builds a Technology for a non-ITRS node by log-linear
// interpolation between the bracketing base nodes.
func interpolate(n Node) *Technology {
	lo, hi, w := bracket(n)
	a, b := baseTechnologies[lo], baseTechnologies[hi]
	mix := func(x, y float64) float64 { return mixAt(w, x, y) }
	t := &Technology{Node: n, F: n.FeatureSize()}
	for i := range t.Devices {
		da, db := a.Devices[i], b.Devices[i]
		t.Devices[i] = DeviceParams{
			Type:            da.Type,
			Vdd:             mix(da.Vdd, db.Vdd),
			Vth:             mix(da.Vth, db.Vth),
			Lphy:            mix(da.Lphy, db.Lphy),
			CgIdealPerWidth: mix(da.CgIdealPerWidth, db.CgIdealPerWidth),
			CFringePerWidth: mix(da.CFringePerWidth, db.CFringePerWidth),
			CJuncPerWidth:   mix(da.CJuncPerWidth, db.CJuncPerWidth),
			IonN:            mix(da.IonN, db.IonN),
			IoffN:           mix(da.IoffN, db.IoffN),
			IoffP:           mix(da.IoffP, db.IoffP),
			IgOn:            mix(da.IgOn, db.IgOn),
			RnOnPerWidth:    mix(da.RnOnPerWidth, db.RnOnPerWidth),
			RpOnPerWidth:    mix(da.RpOnPerWidth, db.RpOnPerWidth),
		}
	}
	for i := range t.Wires {
		wa, wb := a.Wires[i], b.Wires[i]
		t.Wires[i] = WireParams{
			Class:    wa.Class,
			Material: wa.Material,
			Pitch:    mix(wa.Pitch, wb.Pitch),
			RPerLen:  mix(wa.RPerLen, wb.RPerLen),
			CPerLen:  mix(wa.CPerLen, wb.CPerLen),
		}
		ta, tb := a.TungstenWires[i], b.TungstenWires[i]
		t.TungstenWires[i] = WireParams{
			Class:    ta.Class,
			Material: ta.Material,
			Pitch:    mix(ta.Pitch, tb.Pitch),
			RPerLen:  mix(ta.RPerLen, tb.RPerLen),
			CPerLen:  mix(ta.CPerLen, tb.CPerLen),
		}
	}
	for i := range t.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.AreaF2 == 0 && cb.AreaF2 == 0 {
			continue // unpopulated provider slot
		}
		t.Cells[i] = mixCell(ca, cb, w)
	}
	t.SenseAmpDelay = mix(a.SenseAmpDelay, b.SenseAmpDelay)
	t.SenseAmpEnergy = mix(a.SenseAmpEnergy, b.SenseAmpEnergy)
	return t
}

func mixRetention(x, y, w float64) float64 {
	if math.IsInf(x, 1) || math.IsInf(y, 1) {
		return math.Inf(1)
	}
	return math.Exp(math.Log(x) + w*(math.Log(y)-math.Log(x)))
}

// LeakageTempScale returns the multiplicative factor on subthreshold
// leakage at junction temperature tempK relative to the tables'
// reference temperature (358 K, the 85C worst-case corner the ITRS
// quotes leakage at). Subthreshold current grows exponentially with
// temperature; the fitted doubling interval is ~12 K, a standard
// rule of thumb for nanometer nodes.
func LeakageTempScale(tempK float64) float64 {
	const (
		refK      = 358.0
		doublingK = 12.0
	)
	return math.Pow(2, (tempK-refK)/doublingK)
}
