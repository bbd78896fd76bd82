package tech

import "math"

// The tables below hold per-node technology data. Values follow the
// structure and trends of the ITRS 2006 update (devices), Ron Ho's
// wire projections (interconnect), and the published cell data the
// paper cites ([38] for LP-DRAM, [3,23,24] for COMM-DRAM, [8] for the
// long-channel SRAM assumption), anchored so that the model reproduces
// the paper's Table 1 at 32 nm and its validation targets (Figure 1,
// Table 2) within the errors the paper reports.
//
// Unit conventions in the literals:
//   currents   1 uA/um == 1 A/m        (numerically identical)
//   leakage    1 nA/um == 1e-3 A/m
//   capacitance 1 fF/um == 1e-9 F/m
//   R*width    1 kohm*um == 1e-3 ohm*m

// rEff converts (Vdd, Ion/width) into an effective switching
// resistance times width, including the empirical 2.4x factor that
// accounts for rise time and velocity saturation (the same role as
// the Horowitz-fit constants in the original tool).
func rEff(vdd, ion float64) float64 { return 2.4 * vdd / ion }

func dev(t DeviceType, vdd, vth, lphyNM, cg, cfr, cj, ionN, ioffN, ig float64) DeviceParams {
	return DeviceParams{
		Type:            t,
		Vdd:             vdd,
		Vth:             vth,
		Lphy:            lphyNM * 1e-9,
		CgIdealPerWidth: cg,
		CFringePerWidth: cfr,
		CJuncPerWidth:   cj,
		IonN:            ionN,
		IoffN:           ioffN,
		IoffP:           ioffN / 2,
		IgOn:            ig,
		RnOnPerWidth:    rEff(vdd, ionN),
		RpOnPerWidth:    2 * rEff(vdd, ionN),
	}
}

// wire builds WireParams for a pitch (in units of F), an effective
// resistivity (ohm*m), an aspect ratio (thickness/width) and a
// capacitance per length.
func wire(c WireClass, m WireMaterial, node Node, pitchF, rho, ar, cPerLen float64) WireParams {
	f := node.FeatureSize()
	pitch := pitchF * f
	width := pitch / 2
	thick := ar * width
	return WireParams{
		Class:    c,
		Material: m,
		Pitch:    pitch,
		RPerLen:  rho / (width * thick),
		CPerLen:  cPerLen,
	}
}

// Effective resistivities (including barrier/liner and surface
// scattering, which worsen as dimensions shrink).
var rhoCu = map[Node]float64{Node90: 3.0e-8, Node65: 3.3e-8, Node45: 3.7e-8, Node32: 4.2e-8}

const tungstenFactor = 3.0 // rho_W / rho_Cu (with liners)

func wires(node Node) (cu, w [numWireClasses]WireParams) {
	rho := rhoCu[node]
	cu[WireLocal] = wire(WireLocal, Copper, node, 2.5, rho, 1.8, 1.8e-10)
	cu[WireSemiGlobal] = wire(WireSemiGlobal, Copper, node, 4, rho, 2.0, 2.0e-10)
	cu[WireGlobal] = wire(WireGlobal, Copper, node, 8, rho, 2.2, 2.1e-10)
	for i := range cu {
		w[i] = cu[i]
		w[i].Material = Tungsten
		w[i].RPerLen *= tungstenFactor
	}
	return cu, w
}

func cells(node Node) [numRAMTypes]CellParams {
	f := node.FeatureSize()
	idx := map[Node]int{Node90: 0, Node65: 1, Node45: 2, Node32: 3}[node]
	pick := func(v [4]float64) float64 { return v[idx] }

	sram := CellParams{
		RAM:              SRAM,
		Kind:             KindStatic,
		AreaF2:           146,
		WidthF:           14.6,
		HeightF:          10,
		Vdd:              pick([4]float64{1.2, 1.1, 1.0, 0.9}),
		RetentionT:       math.Inf(1),
		AccessDevice:     HPLongChannel,
		PeripheralDevice: HPLongChannel,
		BitlineMaterial:  Copper,
		AccessWidth:      1.4 * f,
		SenseVmin:        0.10,
	}
	lp := CellParams{
		RAM:              LPDRAM,
		Kind:             Kind1T1C,
		AreaF2:           pick([4]float64{20, 24, 27, 30}),
		WidthF:           pick([4]float64{5.0, 5.4, 5.7, 6.0}),
		HeightF:          pick([4]float64{4.0, 4.45, 4.75, 5.0}),
		Vdd:              pick([4]float64{1.2, 1.1, 1.0, 1.0}),
		Vpp:              pick([4]float64{1.8, 1.7, 1.6, 1.5}),
		Cs:               20e-15,
		RetentionT:       pick([4]float64{0.18e-3, 0.16e-3, 0.14e-3, 0.12e-3}),
		AccessDevice:     LPDRAMAccess,
		PeripheralDevice: HPLongChannel,
		BitlineMaterial:  Copper,
		AccessWidth:      1.8 * f,
		SenseVmin:        0.08,
	}
	comm := CellParams{
		RAM:              COMMDRAM,
		Kind:             Kind1T1C,
		AreaF2:           6,
		WidthF:           3,
		HeightF:          2,
		Vdd:              pick([4]float64{1.8, 1.5, 1.2, 1.0}),
		Vpp:              pick([4]float64{3.4, 3.0, 2.8, 2.6}),
		Cs:               30e-15,
		RetentionT:       64e-3,
		AccessDevice:     COMMDRAMAccess,
		PeripheralDevice: LSTP,
		BitlineMaterial:  Tungsten,
		AccessWidth:      1.0 * f,
		SenseVmin:        0.07,
	}
	var out [numRAMTypes]CellParams
	out[SRAM], out[LPDRAM], out[COMMDRAM] = sram, lp, comm
	return out
}

func buildTech(n Node, devs [numDeviceTypes]DeviceParams, saDelay, saEnergy float64) *Technology {
	cu, w := wires(n)
	return &Technology{
		Node:           n,
		F:              n.FeatureSize(),
		Devices:        devs,
		Wires:          cu,
		TungstenWires:  w,
		Cells:          cells(n),
		SenseAmpDelay:  saDelay,
		SenseAmpEnergy: saEnergy,
	}
}

var baseTechnologies = map[Node]*Technology{
	Node90: buildTech(Node90, [numDeviceTypes]DeviceParams{
		HP:             dev(HP, 1.2, 0.24, 37, 6.4e-10, 2.4e-10, 8.0e-10, 1080, 0.35, 0.008),
		LSTP:           dev(LSTP, 1.2, 0.50, 75, 8.8e-10, 2.6e-10, 9.0e-10, 450, 1.0e-5, 1e-6),
		HPLongChannel:  dev(HPLongChannel, 1.2, 0.30, 52, 7.7e-10, 2.5e-10, 8.5e-10, 860, 0.08, 0.004),
		LPDRAMAccess:   dev(LPDRAMAccess, 1.2, 0.35, 90, 9.0e-10, 2.6e-10, 4.0e-10, 600, 2.0e-4, 1e-7),
		COMMDRAMAccess: dev(COMMDRAMAccess, 1.8, 0.90, 110, 1.0e-9, 2.8e-10, 3.0e-10, 260, 1.5e-6, 1e-9),
	}, 150e-12, 8e-15),
	Node65: buildTech(Node65, [numDeviceTypes]DeviceParams{
		HP:             dev(HP, 1.1, 0.22, 25, 5.8e-10, 2.4e-10, 7.2e-10, 1200, 0.40, 0.012),
		LSTP:           dev(LSTP, 1.2, 0.50, 45, 8.0e-10, 2.5e-10, 8.0e-10, 480, 1.0e-5, 1e-6),
		HPLongChannel:  dev(HPLongChannel, 1.1, 0.28, 35, 7.0e-10, 2.4e-10, 7.6e-10, 960, 0.10, 0.006),
		LPDRAMAccess:   dev(LPDRAMAccess, 1.1, 0.35, 65, 8.4e-10, 2.5e-10, 3.6e-10, 640, 2.0e-4, 1e-7),
		COMMDRAMAccess: dev(COMMDRAMAccess, 1.5, 0.85, 80, 9.4e-10, 2.6e-10, 2.7e-10, 250, 1.5e-6, 1e-9),
	}, 120e-12, 6e-15),
	Node45: buildTech(Node45, [numDeviceTypes]DeviceParams{
		HP:             dev(HP, 1.0, 0.18, 18, 5.2e-10, 2.4e-10, 6.4e-10, 1400, 0.45, 0.020),
		LSTP:           dev(LSTP, 1.1, 0.50, 28, 7.2e-10, 2.5e-10, 7.2e-10, 510, 1.0e-5, 1e-6),
		HPLongChannel:  dev(HPLongChannel, 1.0, 0.24, 25, 6.2e-10, 2.4e-10, 6.8e-10, 1120, 0.12, 0.010),
		LPDRAMAccess:   dev(LPDRAMAccess, 1.0, 0.35, 45, 7.8e-10, 2.4e-10, 3.2e-10, 670, 2.0e-4, 1e-7),
		COMMDRAMAccess: dev(COMMDRAMAccess, 1.2, 0.80, 55, 8.8e-10, 2.5e-10, 2.4e-10, 240, 1.5e-6, 1e-9),
	}, 100e-12, 4.5e-15),
	Node32: buildTech(Node32, [numDeviceTypes]DeviceParams{
		HP:             dev(HP, 0.9, 0.16, 13, 4.7e-10, 2.4e-10, 5.6e-10, 1600, 0.50, 0.032),
		LSTP:           dev(LSTP, 1.1, 0.50, 20, 6.5e-10, 2.5e-10, 6.5e-10, 540, 1.0e-5, 1e-6),
		HPLongChannel:  dev(HPLongChannel, 0.9, 0.22, 18, 5.6e-10, 2.4e-10, 6.0e-10, 1280, 0.15, 0.016),
		LPDRAMAccess:   dev(LPDRAMAccess, 1.0, 0.35, 32, 7.2e-10, 2.4e-10, 2.8e-10, 700, 2.0e-4, 1e-7),
		COMMDRAMAccess: dev(COMMDRAMAccess, 1.0, 0.75, 40, 8.2e-10, 2.4e-10, 2.1e-10, 230, 1.5e-6, 1e-9),
	}, 80e-12, 3.5e-15),
}
