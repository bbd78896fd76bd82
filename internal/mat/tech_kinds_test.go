package mat

import (
	"math"
	"testing"
	"testing/quick"

	"cactid/internal/tech"
)

func techFor(t *testing.T, name string, n tech.Node) *tech.Technology {
	t.Helper()
	tt, err := tech.TechnologyOf(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func ramOf(t *testing.T, name string) tech.RAMType {
	t.Helper()
	p, err := tech.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.DataRAM(tech.SRAM)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every provider's cell must produce a finite, positive mat model, and
// the write energy must never fall below the read energy — for NVM
// kinds the gap is the storage-element switching energy, which is the
// headline asymmetry of the technology.
func TestKindsBuildAndWriteDominatesRead(t *testing.T) {
	for _, name := range []string{"itrs-sram", "itrs-lpdram", "itrs-commdram", "stt-ram", "pcm", "gain-cell"} {
		tt := techFor(t, name, tech.Node32)
		ram := ramOf(t, name)
		m, err := New(Config{Tech: tt, RAM: ram, Rows: 256, Cols: 256, DegBLMux: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fin := func(v float64) bool { return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !fin(m.AccessTime()) || !fin(m.EActivate) || !fin(m.ERead) || !fin(m.Area) {
			t.Errorf("%s: non-finite mat metrics: acc=%g eact=%g erd=%g area=%g",
				name, m.AccessTime(), m.EActivate, m.ERead, m.Area)
		}
		if m.EWrite < m.ERead {
			t.Errorf("%s: write energy %g below read energy %g", name, m.EWrite, m.ERead)
		}
	}
}

// The NVM write-per-bit energy must include the cell switching energy
// on top of the bitline swing: quick-checked across subarray shapes so
// the property is not an artifact of one geometry.
func TestNVMWriteEnergyExceedsBitlineSwing(t *testing.T) {
	for _, name := range []string{"stt-ram", "pcm"} {
		tt := techFor(t, name, tech.Node32)
		ram := ramOf(t, name)
		cell := tt.Cell(ram)
		if cell.EWriteCell <= 0 || cell.WritePulse <= 0 || cell.Endurance <= 0 {
			t.Fatalf("%s: NVM cell missing write parameters: %+v", name, cell)
		}
		f := func(r, c uint8) bool {
			rows := 64 << (r % 4)
			cols := 64 << (c % 4)
			m, err := New(Config{Tech: tt, RAM: ram, Rows: rows, Cols: cols, DegBLMux: 1})
			if err != nil {
				return true
			}
			// eWritePerBit = cBL*vdd^2/2 + EWriteCell >= EWriteCell.
			return m.EWritePerBit >= cell.EWriteCell
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Gain-cell refresh is retention-driven: shrinking the retention time
// must raise the refresh power, monotonically, across random subarray
// shapes and retention scalings (testing/quick). The comparison builds
// the same geometry under two retention values that differ by a
// random factor > 1.
func TestGainCellRefreshMonotoneInRetention(t *testing.T) {
	base := techFor(t, "gain-cell", tech.Node32)
	ram := ramOf(t, "gain-cell")
	if k := base.Cell(ram).Kind; k != tech.KindGainCell {
		t.Fatalf("gain-cell provider cell kind = %v", k)
	}
	refreshAt := func(rows, cols int, retention float64) (float64, bool) {
		tt := *base // shallow copy; Cells is an array, so this clones it
		tt.Cells[ram].RetentionT = retention
		m, err := New(Config{Tech: &tt, RAM: ram, Rows: rows, Cols: cols, DegBLMux: 1})
		if err != nil {
			return 0, false
		}
		return m.RefreshPower, true
	}
	f := func(r, c uint8, shrink uint8) bool {
		rows := 64 << (r % 4)
		cols := 64 << (c % 4)
		ret := base.Cell(ram).RetentionT
		factor := 1.0 + float64(shrink%100+1)/10 // (1, 11]
		hi, ok1 := refreshAt(rows, cols, ret)
		lo, ok2 := refreshAt(rows, cols, ret/factor)
		if !ok1 || !ok2 {
			return true
		}
		return lo > hi && hi > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

// The gain-cell refresh must pay the writeback term the 1T1C kind gets
// for free from its destructive read: per refreshed row it exceeds a
// pure activate+precharge cycle by the full-row write energy.
func TestGainCellRefreshIncludesWriteback(t *testing.T) {
	tt := techFor(t, "gain-cell", tech.Node32)
	ram := ramOf(t, "gain-cell")
	m, err := New(Config{Tech: tt, RAM: ram, Rows: 256, Cols: 256, DegBLMux: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RefreshRowEnergy(); got <= m.EActivate+m.EPrecharge {
		t.Errorf("RefreshRowEnergy %g does not exceed activate+precharge %g",
			got, m.EActivate+m.EPrecharge)
	}
}

// Closed-form bound admissibility for the new kinds, mirrored from
// NewShared: AccessLB and NewShardLB must never exceed the built mat's
// access time and footprint, for any feasible shape.
func TestBoundsAdmissibleForAllKinds(t *testing.T) {
	for _, name := range []string{"itrs-sram", "itrs-lpdram", "itrs-commdram", "stt-ram", "pcm", "gain-cell"} {
		tt := techFor(t, name, tech.Node32)
		ram := ramOf(t, name)
		for _, rows := range []int{64, 256, 1024} {
			for _, cols := range []int{64, 256, 1024} {
				m, err := New(Config{Tech: tt, RAM: ram, Rows: rows, Cols: cols, DegBLMux: 1})
				if err != nil {
					continue
				}
				if lb := AccessLB(tt, ram, 1, rows, cols); lb > m.AccessTime() {
					t.Errorf("%s %dx%d: AccessLB %g > built %g", name, rows, cols, lb, m.AccessTime())
				}
				slb := NewShardLB(tt, ram, 1, rows, cols)
				if slb.Access > m.AccessTime() {
					t.Errorf("%s %dx%d: ShardLB.Access %g > built %g", name, rows, cols, slb.Access, m.AccessTime())
				}
				if slb.MatW > m.Width || slb.MatH > m.Height {
					t.Errorf("%s %dx%d: ShardLB dims (%g, %g) exceed built (%g, %g)",
						name, rows, cols, slb.MatW, slb.MatH, m.Width, m.Height)
				}
			}
		}
	}
}
