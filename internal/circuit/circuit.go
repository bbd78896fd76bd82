// Package circuit provides the analytical circuit primitives CACTI-D
// is built from: the Horowitz delay approximation, inverters and
// logical-effort buffer chains, repeated global wires (with the
// max-repeater-delay relaxation knob), decoders, tristate drivers and
// an analytical gate-area model with pitch-matching/folding.
//
// Every primitive reports a Result: worst-case delay through the
// stage, dynamic energy per activation, standby leakage power, layout
// area, and the input capacitance it presents to its driver.
package circuit

import (
	"fmt"
	"math"

	"cactid/internal/tech"
)

// Result aggregates the four quantities the model tracks for every
// circuit block, plus the block's input load.
type Result struct {
	Delay   float64 // worst-case propagation delay (s)
	Energy  float64 // dynamic energy per activation (J)
	Leakage float64 // standby leakage power (W)
	Area    float64 // layout area (m^2)
	Cin     float64 // input capacitance presented to the driver (F)
}

// Add accumulates another stage in series: delays and energies and
// leakage and area add; Cin keeps the receiver's value (first stage).
func (r *Result) Add(s Result) {
	r.Delay += s.Delay
	r.Energy += s.Energy
	r.Leakage += s.Leakage
	r.Area += s.Area
	if r.Cin == 0 {
		r.Cin = s.Cin
	}
}

// Horowitz computes the delay of a gate with output time constant tf
// (R*C), input ramp time trise, and switching threshold vs (Vth/Vdd),
// using Horowitz's approximation. For a step input pass trise = 0.
func Horowitz(trise, tf, vs float64) float64 {
	if trise <= 0 {
		return tf * math.Sqrt(math.Log(vs)*math.Log(vs))
	}
	a := math.Log(vs)
	return tf * math.Sqrt(a*a+2*trise/tf*(1-vs)*0.5/1)
}

// Inverter is a static CMOS inverter with NMOS width Wn and PMOS
// width Wp built from the given device family.
type Inverter struct {
	Dev    *tech.DeviceParams
	Wn, Wp float64 // widths (m)
}

// NewInverter returns an inverter with the conventional Wp = 2*Wn
// beta ratio.
func NewInverter(dev *tech.DeviceParams, wn float64) Inverter {
	return Inverter{Dev: dev, Wn: wn, Wp: 2 * wn}
}

// InputCap returns the gate capacitance seen at the inverter input.
func (inv Inverter) InputCap() float64 {
	cg := inv.Dev.CgIdealPerWidth + inv.Dev.CFringePerWidth
	return cg * (inv.Wn + inv.Wp)
}

// SelfCap returns the parasitic drain capacitance at the output.
func (inv Inverter) SelfCap() float64 {
	return inv.Dev.CJuncPerWidth * (inv.Wn + inv.Wp)
}

// DriveRes returns the worst-case (pull-up) switching resistance.
func (inv Inverter) DriveRes() float64 {
	rn := inv.Dev.RnOnPerWidth / inv.Wn
	rp := inv.Dev.RpOnPerWidth / inv.Wp
	return max(rn, rp)
}

// Delay returns the Horowitz delay driving loadCap with the given
// input ramp time.
func (inv Inverter) Delay(loadCap, trise float64) float64 {
	tf := inv.DriveRes() * (inv.SelfCap() + loadCap)
	return Horowitz(trise, tf, inv.Dev.Vth/inv.Dev.Vdd)
}

// SwitchEnergy returns the dynamic energy of one output transition
// into loadCap (half CV^2: one edge).
func (inv Inverter) SwitchEnergy(loadCap float64) float64 {
	c := inv.SelfCap() + inv.InputCap() + loadCap
	return 0.5 * c * inv.Dev.Vdd * inv.Dev.Vdd
}

// Leakage returns the average standby leakage power (one of the two
// devices leaks depending on state; we average, and include gate
// leakage of both).
func (inv Inverter) Leakage() float64 {
	d := inv.Dev
	sub := 0.5 * (d.IoffN*inv.Wn + d.IoffP*inv.Wp)
	gate := d.IgOn * (inv.Wn + inv.Wp) / 2
	return d.Vdd * (sub + gate)
}

// Area returns the layout area of the inverter under no pitch
// constraint (see GateArea for pitch-matched layouts).
func (inv Inverter) Area() float64 {
	return GateArea(inv.Dev, []float64{inv.Wn, inv.Wp}, 0)
}

// GateArea is the analytical gate-area model. widths lists the
// transistor widths of the gate (m). If pitch > 0, the layout height
// is constrained to pitch (pitch matching, e.g. a wordline driver that
// must fit the cell height): wide transistors are folded into
// multiple legs. The returned area is height x width of the resulting
// stack.
//
// Layout rules per leg: a leg occupies one gate pitch horizontally
// (Lphy + 2 contacted spacings, approximated as 4F-equivalent using
// the device's own gate length scale) and the folded width
// vertically.
func GateArea(dev *tech.DeviceParams, widths []float64, pitch float64) float64 {
	legPitch := dev.Lphy + 5*dev.Lphy // gate + contacts/spacing
	maxH := pitch
	if maxH <= 0 {
		// Unconstrained: allow a square-ish layout with legs up to
		// 20x the gate length tall.
		maxH = 40 * dev.Lphy
	}
	totalW := 0.0
	legs := 0
	for _, w := range widths {
		if w <= 0 {
			continue
		}
		n := int(math.Ceil(w / maxH))
		legs += n
		totalW += w
	}
	if legs == 0 {
		return 0
	}
	height := min(maxH, totalW/float64(legs)*1.2+2*legPitch)
	if pitch > 0 {
		height = pitch
	}
	return float64(legs) * legPitch * height * 1.3 // 30% wiring overhead
}

// ramChain describes a logical-effort-sized buffer chain.
type Chain struct {
	Dev      *tech.DeviceParams
	NumStage int
	Stages   []Inverter
	Res      Result
}

// OptimalChain sizes a buffer chain from an input capacitance budget
// cin to drive loadCap (plus any fixed wire capacitance), using
// logical effort with a target stage effort of ~4. branch is the
// fanout multiplier for internal branching (1 for a plain chain).
// The chain always has at least one stage.
func OptimalChain(dev *tech.DeviceParams, cin, loadCap, branch float64) Chain {
	if branch < 1 {
		branch = 1
	}
	cgPerW := dev.CgIdealPerWidth + dev.CFringePerWidth
	wnIn := cin / (3 * cgPerW) // Wp=2Wn => Cin = 3*Wn*cg
	if wnIn <= 0 {
		wnIn = 4 * dev.Lphy
		cin = 3 * cgPerW * wnIn
	}
	h := loadCap * branch / cin
	if h < 1 {
		h = 1
	}
	n := int(max(1, math.Round(math.Log(h)/math.Log(4))))
	f := math.Pow(h, 1/float64(n)) // per-stage effort

	ch := Chain{Dev: dev, NumStage: n, Stages: make([]Inverter, 0, n)}
	w := wnIn
	trise := 0.0
	for i := 0; i < n; i++ {
		inv := NewInverter(dev, w)
		var load float64
		if i == n-1 {
			load = loadCap
		} else {
			load = inv.InputCap() * f / branch * branch // next stage cap
		}
		d := inv.Delay(load, trise)
		trise = d / (1 - dev.Vth/dev.Vdd) // ramp for next stage
		ch.Stages = append(ch.Stages, inv)
		ch.Res.Delay += d
		ch.Res.Energy += inv.SwitchEnergy(load) - 0.5*load*dev.Vdd*dev.Vdd // count load once below
		ch.Res.Leakage += inv.Leakage()
		ch.Res.Area += inv.Area()
		w *= f
	}
	// Count the final load's charging energy once.
	ch.Res.Energy += 0.5 * loadCap * dev.Vdd * dev.Vdd
	ch.Res.Cin = cin
	return ch
}

// RepeatedWire models a repeated global interconnect of the given
// length. delaySlack >= 0 relaxes the design away from the
// delay-optimal repeater solution: a slack of s permits (1+s)x the
// optimal delay, shrinking and spreading the repeaters to save
// energy. This implements the paper's "max repeater delay constraint".
type RepeatedWire struct {
	Dev        *tech.DeviceParams
	Wire       *tech.WireParams
	Length     float64
	NumRep     int
	RepWidth   float64
	SegmentLen float64
	Res        Result
}

// NewRepeatedWire builds the repeated-wire solution. For short wires
// (below one optimal segment) no repeaters are inserted and the wire
// is driven directly. It is NewRepeater(dev, w, delaySlack).Wire(length).
func NewRepeatedWire(dev *tech.DeviceParams, w *tech.WireParams, length, delaySlack float64) RepeatedWire {
	r := NewRepeater(dev, w, delaySlack)
	return r.Wire(length)
}

// Repeater is the length-independent half of a repeated-wire solution
// for one device, wire and slack: the optimal segment length, the
// repeater's width and its capacitances, drive, leakage and area. A
// caller that solves many lengths of one wire (a bank's H-tree over a
// whole organization grid) builds it once and calls Wire per length.
type Repeater struct {
	dev  *tech.DeviceParams
	wire *tech.WireParams
	// lopt is the delay-optimal segment length, stretch 1 + the slack,
	// wrep the repeater's NMOS width, and cnext, self, drive, leak and
	// area its input and output capacitance, switching resistance,
	// leakage and area; k is Horowitz's step-input factor, and cin0 the
	// input capacitance of a zero-length wire's driver.
	lopt, stretch, wrep, cnext, self, drive, leak, area, k, cin0 float64
}

// NewRepeater sizes the repeater of a repeated wire of dev and w under
// delaySlack (see RepeatedWire).
func NewRepeater(dev *tech.DeviceParams, w *tech.WireParams, delaySlack float64) Repeater {
	cg := dev.CgIdealPerWidth + dev.CFringePerWidth
	r0 := dev.RnOnPerWidth // per unit NMOS width
	// Total capacitance per unit NMOS width: both gate and junction
	// scale with Wn+Wp = 3*Wn.
	c0 := 3 * (cg + dev.CJuncPerWidth)
	// Classic optimal repeater insertion:
	//   Lseg* = sqrt(2*r0*c0 / (Rw*Cw)), Wopt = sqrt(r0*Cw/(Rw*c0))
	// Relax: use fewer, smaller repeaters than the delay-optimal
	// solution, by the slack factor.
	stretch := 1 + delaySlack
	wrep := math.Sqrt(r0*w.CPerLen/(w.RPerLen*c0)) / stretch
	inv := Inverter{Dev: dev, Wn: wrep, Wp: 2 * wrep}
	ln := math.Log(dev.Vth / dev.Vdd)
	return Repeater{
		dev: dev, wire: w, stretch: stretch, wrep: wrep,
		lopt:  math.Sqrt(2 * r0 * c0 / (w.RPerLen * w.CPerLen)),
		cnext: inv.InputCap(), self: inv.SelfCap(), drive: inv.DriveRes(),
		leak: inv.Leakage(), area: inv.Area(),
		k:    math.Sqrt(ln * ln),
		cin0: NewInverter(dev, 4*dev.Lphy).InputCap(),
	}
}

// Wire solves the repeated wire of the given length.
func (r *Repeater) Wire(length float64) RepeatedWire {
	rw := RepeatedWire{Dev: r.dev, Wire: r.wire, Length: length}
	if length <= 0 {
		rw.Res.Cin = r.cin0
		return rw
	}
	n, lseg, cwire, segDelay := r.segment(length)
	rw.NumRep = n
	rw.RepWidth = r.wrep
	rw.SegmentLen = lseg
	rw.Res.Delay = float64(n) * segDelay
	vdd := r.dev.Vdd
	rw.Res.Energy = float64(n) * 0.5 * (cwire + r.cnext + r.self) * vdd * vdd
	rw.Res.Leakage = float64(n) * r.leak
	rw.Res.Area = float64(n) * r.area
	rw.Res.Cin = r.cnext
	return rw
}

// DelayArea returns Wire(length).Res's delay and area without
// assembling the rest of the solution.
func (r *Repeater) DelayArea(length float64) (delay, area float64) {
	if length <= 0 {
		return 0, 0
	}
	n, _, _, segDelay := r.segment(length)
	return float64(n) * segDelay, float64(n) * r.area
}

// segment splits a wire of positive length into repeated segments,
// returning their count, length and wire capacitance and the delay of
// one.
func (r *Repeater) segment(length float64) (n int, lseg, cwire, delay float64) {
	nOpt := max(1, math.Round(length/r.lopt))
	n = int(max(1, math.Round(nOpt/r.stretch)))
	lseg = length / float64(n)
	cwire = r.wire.CPerLen * lseg
	rwire := r.wire.RPerLen * lseg
	// Per-segment Elmore: Rdrv*(Cself+Cwire+Cnext) + Rwire*(Cwire/2+Cnext),
	// through Horowitz's step-input delay.
	tf := r.drive*(r.self+cwire+r.cnext) + rwire*(cwire/2+r.cnext)
	return n, lseg, cwire, tf * r.k
}

// DelayLBParts returns constants such that the delay of any
// NewRepeatedWire solution of length L built from the repeater's
// device, wire and slack satisfies
//
//	delay >= max(fixed + lin*L, rate*L)
//
// The per-segment time constant of a repeated wire of length L split
// into n segments is tf(L/n) = A + B*lseg + C*lseg^2 with
// A = Rdrv*(Cself+Cnext), B = Rdrv*Cw + Rw*Cnext, C = Rw*Cw/2, and the
// repeater inverter (width wopt/stretch) does not depend on L. The
// total k*(A*n + B*L + C*L^2/n) is at least k*(A + B*L) for every
// n >= 1 (drop the nonnegative quadratic term), and at least
// k*L*(B + 2*sqrt(A*C)) by AM-GM over n. Both hold for every integer
// n, hence for the count NewRepeatedWire actually picks. The affine
// branch keeps the n>=1 repeater self-delay term that the per-meter
// rate discards: on wires shorter than one optimal segment the fixed
// driver delay dominates and the rate alone is far too low.
func (r *Repeater) DelayLBParts() (fixed, lin, rate float64) {
	a := r.drive * (r.self + r.cnext)
	b := r.drive*r.wire.CPerLen + r.wire.RPerLen*r.cnext
	c := r.wire.RPerLen * r.wire.CPerLen / 2
	return r.k * a, r.k * b, r.k * (b + 2*math.Sqrt(a*c))
}

// TristateDriver models the bus drivers used on shared H-tree data
// buses: an enabled inverter with roughly 2x the parasitics of a
// plain inverter of the same drive.
func TristateDriver(dev *tech.DeviceParams, loadCap float64) Result {
	ch := OptimalChain(dev, 3*(dev.CgIdealPerWidth+dev.CFringePerWidth)*8*dev.Lphy, loadCap, 1)
	r := ch.Res
	r.Energy *= 1.3
	r.Leakage *= 2
	r.Area *= 1.8
	r.Delay *= 1.15
	return r
}

// Decoder models an n-to-2^n row/column decoder: a predecode stage
// (banks of NAND gates over 2-3 address bits) followed by per-output
// AND + driver chains sized to drive loadPerLine, with wireCap of
// distribution wiring across the decoder span.
type Decoder struct {
	NumOut int
	Res    Result
	// DriverChain is the sized final wordline-driver chain (exposed
	// so mats can pitch-match it against the cell height).
	DriverChain Chain
}

// NewDecoder builds a decoder with numOut outputs (rounded up to a
// power of two internally), each output driving loadPerLine farads.
// wireCap/wireRes describe the predecode distribution wiring.
func NewDecoder(dev *tech.DeviceParams, numOut int, loadPerLine, wireCap, wireRes float64) Decoder {
	if numOut < 2 {
		numOut = 2
	}
	bits := int(math.Ceil(math.Log2(float64(numOut))))
	cgPerW := dev.CgIdealPerWidth + dev.CFringePerWidth
	minCin := 3 * cgPerW * 6 * dev.Lphy

	// Predecode: bits/2 groups of NAND2 producing 4 lines each; each
	// predecode line loads numOut/4 final gates plus the wire.
	nGroups := (bits + 1) / 2
	finalGateCin := 2 * minCin // 2-input AND at each row
	predecodeLoad := wireCap + float64(numOut)/4*finalGateCin
	pre := OptimalChain(dev, minCin, predecodeLoad, 1)
	// Wire RC adds an Elmore term.
	preWireDelay := 0.38 * wireRes * wireCap

	// Final stage: AND + driver chain to the line load.
	drv := OptimalChain(dev, finalGateCin, loadPerLine, 1)

	d := Decoder{NumOut: numOut, DriverChain: drv}
	// NAND/NOR stages carry logical effort above the inverter chains
	// they are approximated by (g ~ 4/3-5/3 plus parasitics).
	const gateEffortFactor = 1.4
	d.Res.Delay = gateEffortFactor*(pre.Res.Delay+drv.Res.Delay) + preWireDelay
	// Energy: all predecode groups switch; exactly one output line fires.
	d.Res.Energy = float64(nGroups)*pre.Res.Energy + drv.Res.Energy
	// Leakage and area: every output has a final gate+driver.
	d.Res.Leakage = float64(nGroups)*pre.Res.Leakage + float64(numOut)*drv.Res.Leakage
	d.Res.Area = float64(nGroups)*pre.Res.Area + float64(numOut)*drv.Res.Area
	d.Res.Cin = pre.Res.Cin
	return d
}

// SenseAmp wraps the per-node latch sense-amplifier figures into a
// Result for nAmps amplifiers activated together.
func SenseAmp(t *tech.Technology, dev *tech.DeviceParams, nAmps int, pitch float64) Result {
	per := GateArea(dev, []float64{8 * dev.Lphy, 8 * dev.Lphy, 6 * dev.Lphy, 6 * dev.Lphy}, pitch)
	return Result{
		Delay:   t.SenseAmpDelay,
		Energy:  float64(nAmps) * t.SenseAmpEnergy,
		Leakage: float64(nAmps) * dev.Vdd * (dev.IoffN * 6 * dev.Lphy),
		Area:    float64(nAmps) * per,
		Cin:     0,
	}
}

func (r Result) String() string {
	return fmt.Sprintf("delay=%.3gps energy=%.3gpJ leak=%.3guW area=%.3gum2",
		r.Delay*1e12, r.Energy*1e12, r.Leakage*1e6, r.Area*1e12)
}
