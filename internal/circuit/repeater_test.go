package circuit

import (
	"fmt"
	"math"
	"testing"

	"cactid/internal/tech"
)

// refRepeatedWire is the repeated-wire solution as one function,
// every length-independent term recomputed per call: the reference
// Repeater.Wire must reproduce bit for bit.
func refRepeatedWire(dev *tech.DeviceParams, w *tech.WireParams, length, delaySlack float64) RepeatedWire {
	rw := RepeatedWire{Dev: dev, Wire: w, Length: length}
	if length <= 0 {
		rw.Res.Cin = NewInverter(dev, 4*dev.Lphy).InputCap()
		return rw
	}
	cg := dev.CgIdealPerWidth + dev.CFringePerWidth
	r0 := dev.RnOnPerWidth
	c0 := 3 * (cg + dev.CJuncPerWidth)
	lopt := math.Sqrt(2 * r0 * c0 / (w.RPerLen * w.CPerLen))
	wopt := math.Sqrt(r0 * w.CPerLen / (w.RPerLen * c0))
	stretch := 1 + delaySlack
	nOpt := max(1, math.Round(length/lopt))
	n := int(max(1, math.Round(nOpt/stretch)))
	wrep := wopt / stretch
	lseg := length / float64(n)

	inv := Inverter{Dev: dev, Wn: wrep, Wp: 2 * wrep}
	cwire := w.CPerLen * lseg
	rwire := w.RPerLen * lseg
	cnext := inv.InputCap()
	tf := inv.DriveRes()*(inv.SelfCap()+cwire+cnext) + rwire*(cwire/2+cnext)
	segDelay := Horowitz(0, tf, dev.Vth/dev.Vdd)

	rw.NumRep = n
	rw.RepWidth = wrep
	rw.SegmentLen = lseg
	rw.Res.Delay = float64(n) * segDelay
	vdd := dev.Vdd
	rw.Res.Energy = float64(n) * 0.5 * (cwire + cnext + inv.SelfCap()) * vdd * vdd
	rw.Res.Leakage = float64(n) * inv.Leakage()
	rw.Res.Area = float64(n) * inv.Area()
	rw.Res.Cin = cnext
	return rw
}

// refDelayLBParts sizes the repeater inline and returns the H-tree
// delay floor's constants: the reference Repeater.DelayLBParts must
// reproduce.
func refDelayLBParts(dev *tech.DeviceParams, w *tech.WireParams, delaySlack float64) (fixed, lin, rate float64) {
	cg := dev.CgIdealPerWidth + dev.CFringePerWidth
	r0 := dev.RnOnPerWidth
	c0 := 3 * (cg + dev.CJuncPerWidth)
	wopt := math.Sqrt(r0 * w.CPerLen / (w.RPerLen * c0))
	wrep := wopt / (1 + delaySlack)
	inv := Inverter{Dev: dev, Wn: wrep, Wp: 2 * wrep}
	cnext := inv.InputCap()
	a := inv.DriveRes() * (inv.SelfCap() + cnext)
	b := inv.DriveRes()*w.CPerLen + w.RPerLen*cnext
	c := w.RPerLen * w.CPerLen / 2
	ln := math.Log(dev.Vth / dev.Vdd)
	k := math.Sqrt(ln * ln)
	return k * a, k * b, k * (b + 2*math.Sqrt(a*c))
}

// wireDiff names the first field where two repeated wires differ,
// floats compared by their bits (so NaN equals NaN), or returns "".
func wireDiff(got, want RepeatedWire) string {
	if got.Dev != want.Dev || got.Wire != want.Wire {
		return "device or wire pointer"
	}
	if got.NumRep != want.NumRep {
		return fmt.Sprintf("NumRep %d, want %d", got.NumRep, want.NumRep)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Length", got.Length, want.Length},
		{"RepWidth", got.RepWidth, want.RepWidth},
		{"SegmentLen", got.SegmentLen, want.SegmentLen},
		{"Delay", got.Res.Delay, want.Res.Delay},
		{"Energy", got.Res.Energy, want.Res.Energy},
		{"Leakage", got.Res.Leakage, want.Res.Leakage},
		{"Area", got.Res.Area, want.Res.Area},
		{"Cin", got.Res.Cin, want.Res.Cin},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// checkRepeater compares one repeater's wires over lengths, and its
// delay-floor constants, with the references.
func checkRepeater(dev *tech.DeviceParams, w *tech.WireParams, slack float64, lengths []float64) error {
	r := NewRepeater(dev, w, slack)
	for _, l := range lengths {
		want := refRepeatedWire(dev, w, l, slack)
		if d := wireDiff(r.Wire(l), want); d != "" {
			return fmt.Errorf("Wire(%v): %s", l, d)
		}
		if d := wireDiff(NewRepeatedWire(dev, w, l, slack), want); d != "" {
			return fmt.Errorf("NewRepeatedWire(%v): %s", l, d)
		}
		delay, area := r.DelayArea(l)
		if math.Float64bits(delay) != math.Float64bits(want.Res.Delay) || math.Float64bits(area) != math.Float64bits(want.Res.Area) {
			return fmt.Errorf("DelayArea(%v) = %v, %v, want %v, %v", l, delay, area, want.Res.Delay, want.Res.Area)
		}
	}
	f, l, rt := r.DelayLBParts()
	wf, wl, wr := refDelayLBParts(dev, w, slack)
	for _, p := range [][2]float64{{f, wf}, {l, wl}, {rt, wr}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return fmt.Errorf("DelayLBParts %v %v %v, want %v %v %v", f, l, rt, wf, wl, wr)
		}
	}
	return nil
}

// TestRepeaterMatchesReference holds Repeater.Wire, and so
// NewRepeatedWire, to the one-function reference field for field, bit
// for bit, and Repeater.DelayArea to its delay and area: every provider at nodes 32, 45, 65, 78 (interpolated) and
// 90, every device type, wire class and conductor, four slacks, and
// lengths at and below zero, below one segment, around the rounding
// points of the repeater count and up to 10 cm.
func TestRepeaterMatchesReference(t *testing.T) {
	n := 0
	for _, name := range tech.Providers() {
		for _, node := range []tech.Node{32, 45, 65, 78, 90} {
			tt, err := tech.TechnologyOf(name, node)
			if err != nil {
				t.Fatal(err)
			}
			for d := range tt.Devices {
				dev := &tt.Devices[d]
				for c := range tt.Wires {
					for _, w := range []*tech.WireParams{&tt.Wires[c], &tt.TungstenWires[c]} {
						// The delay-optimal segment length.
						lopt := math.Sqrt(2 * dev.RnOnPerWidth * 3 * (dev.CgIdealPerWidth + dev.CFringePerWidth + dev.CJuncPerWidth) /
							(w.RPerLen * w.CPerLen))
						lengths := []float64{0, math.Copysign(0, -1), -1e-3, 0.01 * lopt, 0.49 * lopt, 0.5 * lopt, 0.99 * lopt}
						for k := 1.0; k <= 12; k++ {
							lengths = append(lengths, (k-0.5)*lopt, k*lopt, (k+0.5)*lopt)
						}
						for l := 1e-6; l <= 0.1; l *= 1.5 {
							lengths = append(lengths, l)
						}
						lengths = append(lengths, 0.1)
						for _, slack := range []float64{0, 0.05, 0.5, 2} {
							if err := checkRepeater(dev, w, slack, lengths); err != nil {
								t.Fatalf("%s@%d device %d wire %d slack %v: %v", name, node, d, c, slack, err)
							}
							n += len(lengths)
						}
					}
				}
			}
		}
	}
	t.Logf("%d wires", n)
}

// FuzzRepeater drives the same comparison with arbitrary lengths and
// slacks, NaN and infinities included.
func FuzzRepeater(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), 1e-3, 0.0)
	f.Add(uint8(1), uint8(3), uint8(1), uint8(2), 0.0, 0.5)
	f.Add(uint8(2), uint8(1), uint8(2), uint8(5), 3e-5, 2.0)
	f.Add(uint8(3), uint8(4), uint8(0), uint8(1), math.NaN(), -1.0)
	f.Add(uint8(4), uint8(2), uint8(3), uint8(3), math.Inf(1), math.Inf(1))
	providers := tech.Providers()
	nodes := []tech.Node{32, 45, 65, 78, 90}
	f.Fuzz(func(t *testing.T, provider, node, device, wire uint8, length, slack float64) {
		tt, err := tech.TechnologyOf(providers[int(provider)%len(providers)], nodes[int(node)%len(nodes)])
		if err != nil {
			t.Fatal(err)
		}
		dev := &tt.Devices[int(device)%len(tt.Devices)]
		w := tt.WireOf(tech.WireClass(int(wire)%len(tt.Wires)), tech.WireMaterial(wire>>7))
		if err := checkRepeater(dev, w, slack, []float64{length}); err != nil {
			t.Fatal(err)
		}
	})
}
