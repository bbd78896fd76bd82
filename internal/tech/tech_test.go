package tech

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNodesAvailable(t *testing.T) {
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		tt := New(n)
		if tt.Node != n {
			t.Errorf("New(%v).Node = %v", n, tt.Node)
		}
		if tt.F != float64(n)*1e-9 {
			t.Errorf("New(%v).F = %g", n, tt.F)
		}
	}
}

func TestNewCopiesBaseTables(t *testing.T) {
	a := New(Node32)
	a.Devices[HP].Vdd = 99
	b := New(Node32)
	if b.Devices[HP].Vdd == 99 {
		t.Fatal("New returned a shared Technology; mutations leak between callers")
	}
}

func TestInterpolatedMemoNeverAliases(t *testing.T) {
	// Interpolated nodes are memoized; callers must still get
	// independent copies and the same values as a fresh build.
	fresh := interpolate(Node(78))
	a := New(Node(78))
	if *a != *fresh {
		t.Fatal("memoized 78nm Technology differs from a fresh interpolation")
	}
	a.Devices[HP].Vdd = 99
	a.Wires[0].Pitch = -1
	b := New(Node(78))
	if b.Devices[HP].Vdd == 99 || b.Wires[0].Pitch == -1 {
		t.Fatal("New aliases the interpolation memo; mutations leak between callers")
	}
	if *b != *fresh {
		t.Fatal("memo entry was corrupted by a caller mutation")
	}
}

func TestInterpolatedMemoConcurrent(t *testing.T) {
	// Hammer several interpolated nodes from many goroutines; the
	// race detector (make verify) checks the memo's locking.
	done := make(chan *Technology, 64)
	for i := 0; i < 64; i++ {
		n := Node(70 + i%8)
		go func() { done <- New(n) }()
	}
	for i := 0; i < 64; i++ {
		if tt := <-done; tt == nil || tt.F <= 0 {
			t.Fatal("concurrent New returned a bad Technology")
		}
	}
}

func TestNewPanicsOutsideRange(t *testing.T) {
	for _, n := range []Node{16, 22, 130, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestHPDeviceTrends(t *testing.T) {
	// ITRS HP: on-current rises, Vdd falls, gate length shrinks, and
	// subthreshold leakage grows as we scale from 90 nm to 32 nm.
	prev := New(Node90).Device(HP)
	for _, n := range []Node{Node65, Node45, Node32} {
		d := New(n).Device(HP)
		if d.IonN <= prev.IonN {
			t.Errorf("%v: HP IonN %g not > %g", n, d.IonN, prev.IonN)
		}
		if d.Vdd >= prev.Vdd {
			t.Errorf("%v: HP Vdd %g not < %g", n, d.Vdd, prev.Vdd)
		}
		if d.Lphy >= prev.Lphy {
			t.Errorf("%v: HP Lphy %g not < %g", n, d.Lphy, prev.Lphy)
		}
		if d.IoffN <= prev.IoffN {
			t.Errorf("%v: HP IoffN %g not > %g", n, d.IoffN, prev.IoffN)
		}
		prev = d
	}
}

func TestLSTPLeakagePinned(t *testing.T) {
	// The paper: LSTP holds an almost constant ~10 pA/um leakage.
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		d := New(n).Device(LSTP)
		if got := d.IoffN; math.Abs(got-1e-5) > 1e-7 {
			t.Errorf("%v: LSTP IoffN = %g A/m, want ~1e-5 (10 pA/um)", n, got)
		}
	}
}

func TestDeviceOrdering(t *testing.T) {
	// At every node: HP fastest (lowest R) and leakiest, LSTP slowest
	// and tightest; long-channel HP in between.
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		tt := New(n)
		hp, lstp, lc := tt.Device(HP), tt.Device(LSTP), tt.Device(HPLongChannel)
		if !(hp.RnOnPerWidth < lstp.RnOnPerWidth) {
			t.Errorf("%v: R ordering violated: HP %g, LSTP %g", n, hp.RnOnPerWidth, lstp.RnOnPerWidth)
		}
		if !(hp.IoffN > lstp.IoffN) {
			t.Errorf("%v: Ioff ordering violated", n)
		}
		if !(lc.IoffN < hp.IoffN && lc.RnOnPerWidth > hp.RnOnPerWidth) {
			t.Errorf("%v: long-channel HP should be less leaky and slower than HP", n)
		}
		if !(lc.IoffN > lstp.IoffN && lc.RnOnPerWidth < lstp.RnOnPerWidth) {
			t.Errorf("%v: long-channel HP should be leakier and faster than LSTP", n)
		}
	}
}

func TestFO4Improves(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		fo4 := New(n).Device(HP).FO4()
		if fo4 <= 0 || fo4 >= prev {
			t.Errorf("%v: FO4 %g not improving from %g", n, fo4, prev)
		}
		prev = fo4
	}
	// Sanity band: 32 nm HP FO4 in low single-digit ps, 90 nm around 10 ps.
	if f := New(Node90).Device(HP).FO4(); f < 2e-12 || f > 30e-12 {
		t.Errorf("90nm FO4 %g outside sane band", f)
	}
}

func TestWireTrends(t *testing.T) {
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		tt := New(n)
		l, s, g := tt.Wire(WireLocal), tt.Wire(WireSemiGlobal), tt.Wire(WireGlobal)
		if !(l.RPerLen > s.RPerLen && s.RPerLen > g.RPerLen) {
			t.Errorf("%v: wire R ordering local>semi>global violated", n)
		}
		if !(l.Pitch < s.Pitch && s.Pitch < g.Pitch) {
			t.Errorf("%v: wire pitch ordering violated", n)
		}
		for _, c := range []WireClass{WireLocal, WireSemiGlobal, WireGlobal} {
			cu := tt.WireOf(c, Copper)
			w := tt.WireOf(c, Tungsten)
			if w.RPerLen <= cu.RPerLen*2 {
				t.Errorf("%v %v: tungsten R %g not substantially above copper %g", n, c, w.RPerLen, cu.RPerLen)
			}
			if w.CPerLen != cu.CPerLen {
				t.Errorf("%v %v: tungsten C should match copper", n, c)
			}
		}
	}
}

func TestWireResistanceGrowsWithScaling(t *testing.T) {
	prev := 0.0
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		r := New(n).Wire(WireSemiGlobal).RPerLen
		if r <= prev {
			t.Errorf("%v: semi-global R/len %g not > previous %g", n, r, prev)
		}
		prev = r
	}
}

func TestCellTable1At32(t *testing.T) {
	tt := New(Node32)
	s, l, c := tt.Cell(SRAM), tt.Cell(LPDRAM), tt.Cell(COMMDRAM)
	if s.AreaF2 != 146 {
		t.Errorf("SRAM area %g F^2, want 146", s.AreaF2)
	}
	if l.AreaF2 != 30 {
		t.Errorf("LP-DRAM area %g F^2, want 30", l.AreaF2)
	}
	if c.AreaF2 != 6 {
		t.Errorf("COMM-DRAM area %g F^2, want 6", c.AreaF2)
	}
	if s.Vdd != 0.9 || l.Vdd != 1.0 || c.Vdd != 1.0 {
		t.Errorf("cell VDDs = %g/%g/%g, want 0.9/1.0/1.0", s.Vdd, l.Vdd, c.Vdd)
	}
	if l.Cs != 20e-15 || c.Cs != 30e-15 {
		t.Errorf("storage caps = %g/%g, want 20f/30f", l.Cs, c.Cs)
	}
	if l.Vpp != 1.5 || c.Vpp != 2.6 {
		t.Errorf("VPP = %g/%g, want 1.5/2.6", l.Vpp, c.Vpp)
	}
	if l.RetentionT != 0.12e-3 || c.RetentionT != 64e-3 {
		t.Errorf("retention = %g/%g, want 0.12ms/64ms", l.RetentionT, c.RetentionT)
	}
	if c.BitlineMaterial != Tungsten || s.BitlineMaterial != Copper {
		t.Error("bitline materials wrong")
	}
	if c.PeripheralDevice != LSTP {
		t.Error("COMM-DRAM periphery should be LSTP")
	}
	if !math.IsInf(s.RetentionT, 1) {
		t.Error("SRAM retention should be +Inf")
	}
}

func TestCellGeometryConsistent(t *testing.T) {
	// WidthF*HeightF must equal AreaF2 (within rounding) at all nodes.
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		tt := New(n)
		for _, r := range []RAMType{SRAM, LPDRAM, COMMDRAM} {
			c := tt.Cell(r)
			if got := c.WidthF * c.HeightF; math.Abs(got-c.AreaF2)/c.AreaF2 > 0.05 {
				t.Errorf("%v %v: WidthF*HeightF=%g vs AreaF2=%g", n, r, got, c.AreaF2)
			}
			f := tt.F
			if c.CellArea(f) <= 0 || c.CellWidth(f) <= 0 || c.CellHeight(f) <= 0 {
				t.Errorf("%v %v: non-positive physical dims", n, r)
			}
		}
	}
}

func TestRetentionSupportedByLeakage(t *testing.T) {
	// The access transistor leakage must be low enough to retain
	// SenseVmin-worth of charge over the refresh period (with margin):
	// this is the physical link between thick oxides and 64 ms refresh.
	for _, n := range []Node{Node90, Node65, Node45, Node32} {
		tt := New(n)
		for _, r := range []RAMType{LPDRAM, COMMDRAM} {
			c := tt.Cell(r)
			d := tt.Device(c.AccessDevice)
			leak := d.IoffN * c.AccessWidth // A
			// Charge available before the read signal degrades below
			// the sense minimum: Cs * (Vdd/2 - margin): use Vdd/4.
			q := c.Cs * c.Vdd / 4
			if leak*c.RetentionT > q {
				t.Errorf("%v %v: leakage %g A drains %g C over retention, > budget %g C",
					n, r, leak, leak*c.RetentionT, q)
			}
		}
	}
}

func TestInterpolation78nm(t *testing.T) {
	t78 := New(78)
	t90, t65 := New(Node90), New(Node65)
	d78, d90, d65 := t78.Device(HP), t90.Device(HP), t65.Device(HP)
	if !(d65.Vdd <= d78.Vdd && d78.Vdd <= d90.Vdd) {
		t.Errorf("78nm HP Vdd %g not between 65nm %g and 90nm %g", d78.Vdd, d65.Vdd, d90.Vdd)
	}
	if !(d90.IonN <= d78.IonN && d78.IonN <= d65.IonN) {
		t.Errorf("78nm HP Ion %g not between nodes", d78.IonN)
	}
	c78 := t78.Cell(COMMDRAM)
	if !(t65.Cell(COMMDRAM).Vdd <= c78.Vdd && c78.Vdd <= t90.Cell(COMMDRAM).Vdd) {
		t.Errorf("78nm COMM-DRAM Vdd %g not between nodes", c78.Vdd)
	}
	if math.Abs(c78.RetentionT-64e-3) > 1e-9 {
		t.Errorf("78nm COMM-DRAM retention %g, want 64ms", c78.RetentionT)
	}
	if !math.IsInf(t78.Cell(SRAM).RetentionT, 1) {
		t.Error("interpolated SRAM retention should stay +Inf")
	}
	if t78.SenseAmpDelay <= t65.SenseAmpDelay || t78.SenseAmpDelay >= t90.SenseAmpDelay {
		t.Errorf("78nm SA delay %g not between nodes", t78.SenseAmpDelay)
	}
}

func TestInterpolationMonotone(t *testing.T) {
	// Property: for any node in (32,90), every positive interpolated
	// HP parameter lies between the bracketing base values.
	f := func(raw uint8) bool {
		n := Node(33 + int(raw)%57) // 33..89
		tt := New(n)
		// find brackets
		var lo, hi Node
		switch {
		case n > 65:
			lo, hi = Node90, Node65
		case n > 45:
			lo, hi = Node65, Node45
		default:
			lo, hi = Node45, Node32
		}
		a, b := New(lo).Device(HP), New(hi).Device(HP)
		d := tt.Device(HP)
		between := func(x, p, q float64) bool {
			if p > q {
				p, q = q, p
			}
			return x >= p*0.999 && x <= q*1.001
		}
		return between(d.Vdd, a.Vdd, b.Vdd) &&
			between(d.IonN, a.IonN, b.IonN) &&
			between(d.IoffN, a.IoffN, b.IoffN) &&
			between(d.RnOnPerWidth, a.RnOnPerWidth, b.RnOnPerWidth)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable1Render(t *testing.T) {
	s := FormatTable1(Node32)
	for _, want := range []string{"146F^2", "30F^2", "6F^2", "tungsten", "ITRS-LSTP", "64", "0.12", "2.6", "1.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, s)
		}
	}
	rows := Table1(Node32)
	if len(rows) != 9 {
		t.Errorf("Table 1 has %d rows, want 9", len(rows))
	}
	if rows[0].SRAM != "146F^2" {
		t.Errorf("row 0 SRAM = %q", rows[0].SRAM)
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		HP.String():             "ITRS-HP",
		LSTP.String():           "ITRS-LSTP",
		HPLongChannel.String():  "ITRS-HP-long-channel",
		LPDRAMAccess.String():   "LP-DRAM-access",
		COMMDRAMAccess.String(): "COMM-DRAM-access",
		SRAM.String():           "SRAM",
		LPDRAM.String():         "LP-DRAM",
		COMMDRAM.String():       "COMM-DRAM",
		WireLocal.String():      "local",
		WireSemiGlobal.String(): "semi-global",
		WireGlobal.String():     "global",
		Copper.String():         "copper",
		Tungsten.String():       "tungsten",
		Node32.String():         "32nm",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !SRAM.IsDRAM() == false || !LPDRAM.IsDRAM() || !COMMDRAM.IsDRAM() {
		t.Error("IsDRAM wrong")
	}
}

func TestLeakageTempScale(t *testing.T) {
	if got := LeakageTempScale(358); math.Abs(got-1) > 1e-12 {
		t.Errorf("scale at reference = %g, want 1", got)
	}
	if got := LeakageTempScale(370); math.Abs(got-2) > 1e-9 {
		t.Errorf("scale at +12K = %g, want 2", got)
	}
	if got := LeakageTempScale(346); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("scale at -12K = %g, want 0.5", got)
	}
	// Monotone increasing.
	prev := 0.0
	for temp := 300.0; temp <= 400; temp += 10 {
		s := LeakageTempScale(temp)
		if s <= prev {
			t.Fatalf("not monotone at %gK", temp)
		}
		prev = s
	}
}
