package array

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cactid/internal/tech"
)

func specSRAM(capBytes int64, outBits, assoc int) Spec {
	return Spec{
		Tech: tech.New(tech.Node32), RAM: tech.SRAM,
		CapacityBytes: capBytes, OutputBits: outBits, AssocReadout: assoc,
	}
}

func TestEnumerateFindsSolutions(t *testing.T) {
	banks := Enumerate(specSRAM(1<<20, 512, 1)) // 1MB, 64B line
	if len(banks) < 10 {
		t.Fatalf("only %d organizations found for 1MB SRAM", len(banks))
	}
	for _, b := range banks {
		if b.AccessTime <= 0 || b.Area <= 0 || b.EReadTotal() <= 0 || b.Leakage <= 0 {
			t.Fatalf("invalid bank %v: %+v", b.Org, b)
		}
		if b.AreaEff <= 0 || b.AreaEff >= 1 {
			t.Fatalf("area efficiency %g out of (0,1) for %v", b.AreaEff, b.Org)
		}
		stored := int64(4*b.Org.Rows*b.Org.Cols) * int64(b.Org.Mats)
		if stored < b.Spec.CapacityBytes*8 {
			t.Fatalf("org %v stores %d bits < capacity", b.Org, stored)
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	if _, err := Build(Spec{}, Org{}); err == nil {
		t.Error("empty spec should fail")
	}
	s := specSRAM(1<<20, 512, 1)
	if _, err := Build(s, Org{Rows: 256, Cols: 256, Mux: 1, Mats: 0, MatsPerSubbank: 0}); err == nil {
		t.Error("zero mats should fail")
	}
	// Subbank narrower than the output requirement.
	if _, err := Build(s, Org{Rows: 256, Cols: 64, Mux: 64, Mats: 16, MatsPerSubbank: 1, Subbanks: 16}); err == nil {
		t.Error("insufficient output width should fail")
	}
}

func TestTradeoffSmallVsLargeSubarrays(t *testing.T) {
	// Small subarrays: faster random cycle; large subarrays: better
	// area efficiency. Verify the enumeration exposes this tradeoff.
	banks := Enumerate(specSRAM(4<<20, 512, 1))
	var bestCycle, bestEff *Bank
	for _, b := range banks {
		if bestCycle == nil || b.RandomCycle < bestCycle.RandomCycle {
			bestCycle = b
		}
		if bestEff == nil || b.AreaEff > bestEff.AreaEff {
			bestEff = b
		}
	}
	if bestCycle.Org.Rows >= bestEff.Org.Rows {
		t.Errorf("fastest-cycle org %v should use fewer rows than densest %v", bestCycle.Org, bestEff.Org)
	}
	if bestEff.AreaEff < 0.4 {
		t.Errorf("densest organization only %.2f efficient", bestEff.AreaEff)
	}
}

func TestInterleaveCycleBelowRandomCycleDRAM(t *testing.T) {
	// For DRAM, multisubbank interleaving must beat the random cycle
	// (that is its whole point, Section 2.3.4).
	s := Spec{Tech: tech.New(tech.Node32), RAM: tech.LPDRAM,
		CapacityBytes: 8 << 20, OutputBits: 512, AssocReadout: 1, MaxPipelineStages: 6}
	banks := Enumerate(s)
	if len(banks) == 0 {
		t.Fatal("no organizations")
	}
	ok := false
	for _, b := range banks {
		if b.InterleaveCycle < b.RandomCycle {
			ok = true
			break
		}
	}
	if !ok {
		t.Error("no organization interleaves faster than its random cycle")
	}
}

func TestPipelineStageLimit(t *testing.T) {
	s := specSRAM(32<<20, 512, 1)
	s.MaxPipelineStages = 3
	banks := Enumerate(s)
	for _, b := range banks {
		if b.PipelineStages > 3 {
			t.Fatalf("org %v uses %d stages > limit 3", b.Org, b.PipelineStages)
		}
	}
}

func TestPageConstraint(t *testing.T) {
	// An 8Kb page must pin the sensed width: MatsPerSubbank*4*Cols == 8192.
	s := Spec{Tech: tech.New(tech.Node32), RAM: tech.COMMDRAM,
		CapacityBytes: 64 << 20, OutputBits: 64, AssocReadout: 1, PageBits: 8192}
	banks := Enumerate(s)
	if len(banks) == 0 {
		t.Fatal("no organizations satisfy the page constraint")
	}
	for _, b := range banks {
		if got := b.Org.MatsPerSubbank * 4 * b.Org.Cols; got != 8192 {
			t.Fatalf("org %v senses %d bits, want 8192", b.Org, got)
		}
	}
}

func TestSleepTransistorsCutLeakage(t *testing.T) {
	s := specSRAM(16<<20, 512, 1)
	on := s
	on.SleepTransistors = true
	b1, err1 := Build(s, OrgFor(s, 512, 512, 1))
	b2, err2 := Build(on, OrgFor(on, 512, 512, 1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b2.Leakage >= b1.Leakage*0.75 {
		t.Errorf("sleep transistors saved too little: %g vs %g", b2.Leakage, b1.Leakage)
	}
	if b2.Leakage <= b1.Leakage*0.3 {
		t.Errorf("sleep transistors saved implausibly much: %g vs %g", b2.Leakage, b1.Leakage)
	}
}

func TestRepeaterSlackSavesEnergy(t *testing.T) {
	s := specSRAM(16<<20, 512, 1)
	relaxed := s
	relaxed.RepeaterSlack = 0.5
	o := OrgFor(s, 512, 512, 1)
	b1, err1 := Build(s, o)
	b2, err2 := Build(relaxed, o)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b2.AccessTime <= b1.AccessTime {
		t.Error("slack should slow the access down")
	}
	if b2.EReadTotal() >= b1.EReadTotal() {
		t.Error("slack should cut read energy")
	}
}

func TestCapacityScaling(t *testing.T) {
	// A bigger bank with the same organization style is bigger,
	// slower and leakier.
	small, err1 := Build(specSRAM(1<<20, 512, 1), OrgFor(specSRAM(1<<20, 512, 1), 256, 256, 1))
	big, err2 := Build(specSRAM(16<<20, 512, 1), OrgFor(specSRAM(16<<20, 512, 1), 256, 256, 1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if big.Area <= small.Area || big.AccessTime <= small.AccessTime || big.Leakage <= small.Leakage {
		t.Error("capacity scaling violated")
	}
}

func TestAssociativityWidensReadout(t *testing.T) {
	// Normal-mode readout of 8 ways must move more energy than a
	// sequential (1-way) readout of the same array.
	sSeq := specSRAM(1<<20, 512, 1)
	sNorm := specSRAM(1<<20, 512, 8)
	bSeq, err1 := Build(sSeq, OrgFor(sSeq, 256, 512, 1))
	bNorm, err2 := Build(sNorm, OrgFor(sNorm, 256, 512, 1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if bNorm.ERead <= bSeq.ERead {
		t.Errorf("8-way readout energy %g not above 1-way %g", bNorm.ERead, bSeq.ERead)
	}
}

func TestDRAMBankHasRefresh(t *testing.T) {
	s := Spec{Tech: tech.New(tech.Node32), RAM: tech.LPDRAM,
		CapacityBytes: 8 << 20, OutputBits: 512, AssocReadout: 1}
	b, err := Build(s, OrgFor(s, 512, 512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if b.RefreshPower <= 0 {
		t.Error("LP-DRAM bank must burn refresh power")
	}
	sr := specSRAM(8<<20, 512, 1)
	bs, err := Build(sr, OrgFor(sr, 512, 512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bs.RefreshPower != 0 {
		t.Error("SRAM bank must not burn refresh power")
	}
}

func TestOrgString(t *testing.T) {
	o := Org{Rows: 256, Cols: 512, Mux: 4, Mats: 16, MatsPerSubbank: 4, Subbanks: 4}
	if o.String() == "" {
		t.Error("empty Org.String()")
	}
}

func TestPropertyEnumeratedBanksConsistent(t *testing.T) {
	banks := Enumerate(specSRAM(2<<20, 512, 1))
	if len(banks) == 0 {
		t.Fatal("no banks")
	}
	f := func(i uint16) bool {
		b := banks[int(i)%len(banks)]
		fin := func(v float64) bool { return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) }
		return fin(b.AccessTime) && fin(b.RandomCycle) && fin(b.InterleaveCycle) &&
			fin(b.Area) && fin(b.EReadTotal()) && fin(b.Leakage) &&
			b.InterleaveCycle <= b.AccessTime+1e-15 &&
			b.Org.Mats == b.Org.Subbanks*b.Org.MatsPerSubbank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOrgForConsistencyProperty(t *testing.T) {
	// Property: every Org that Build accepts satisfies the invariants
	// the model relies on (mat count divisibility, output width,
	// page width).
	s := Spec{Tech: tech.New(tech.Node32), RAM: tech.COMMDRAM,
		CapacityBytes: 32 << 20, OutputBits: 512, AssocReadout: 1, PageBits: 8192}
	f := func(r, c, m uint8) bool {
		rows := 64 << (r % 6)
		cols := 64 << (c % 5)
		mux := 1 << (m % 6)
		o := OrgFor(s, rows, cols, mux)
		b, err := Build(s, o)
		if err != nil {
			return true // rejection is fine
		}
		if b.Org.Mats != b.Org.Subbanks*b.Org.MatsPerSubbank {
			return false
		}
		if b.Org.MatsPerSubbank*4*b.Org.Cols != s.PageBits {
			return false
		}
		return int64(b.Org.Mats)*int64(4*rows*cols) >= s.CapacityBytes*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateAllRAMTypes(t *testing.T) {
	for _, ram := range []tech.RAMType{tech.SRAM, tech.LPDRAM, tech.COMMDRAM} {
		s := Spec{Tech: tech.New(tech.Node32), RAM: ram,
			CapacityBytes: 4 << 20, OutputBits: 512, AssocReadout: 1}
		banks := Enumerate(s)
		if len(banks) == 0 {
			t.Errorf("%v: no organizations", ram)
		}
		for _, b := range banks {
			if ram.IsDRAM() && b.Mat.TRestore <= 0 {
				t.Errorf("%v: DRAM bank without restore phase", ram)
				break
			}
			if !ram.IsDRAM() && b.RefreshPower != 0 {
				t.Errorf("%v: SRAM bank with refresh power", ram)
				break
			}
		}
	}
}

func TestHtreeDelayGrowsWithCapacity(t *testing.T) {
	// Bigger banks have longer H-trees.
	mk := func(capMB int64) *Bank {
		s := specSRAM(capMB<<20, 512, 1)
		b, err := Build(s, OrgFor(s, 256, 256, 1))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small, big := mk(1), mk(16)
	if big.HtreeInDelay <= small.HtreeInDelay {
		t.Errorf("16x capacity should lengthen the H-tree: %g vs %g",
			big.HtreeInDelay, small.HtreeInDelay)
	}
}

func TestAreaBreakdownConsistent(t *testing.T) {
	s := specSRAM(8<<20, 512, 1)
	b, err := Build(s, OrgFor(s, 256, 256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if b.MatsArea <= 0 || b.WireArea <= 0 {
		t.Fatal("area breakdown must be positive")
	}
	if got := b.MatsArea + b.WireArea; math.Abs(got-b.Area)/b.Area > 1e-9 {
		t.Errorf("breakdown %g != total %g", got, b.Area)
	}
	if b.WireArea >= b.MatsArea {
		t.Error("wiring should not dominate the mats for a dense SRAM bank")
	}
}

func TestEnumerateCountersInvariant(t *testing.T) {
	spec := specSRAM(1<<20, 512, 4)
	banks, c, err := EnumerateContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Considered != c.PrunedTotal()+c.Built+c.BuildErrors {
		t.Fatalf("counter accounting broken: %+v (pruned total %d)", c, c.PrunedTotal())
	}
	if int64(len(banks)) != c.Built {
		t.Fatalf("built %d banks but counter says %d", len(banks), c.Built)
	}
	if c.PrunedTotal() == 0 {
		t.Fatal("precheck pruned nothing; pruning is not engaged")
	}
	if c.Considered != int64(len(enumRows)*len(enumCols)*len(enumMux)) {
		t.Fatalf("considered %d, want full grid %d", c.Considered, len(enumRows)*len(enumCols)*len(enumMux))
	}
}

func TestEnumerateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := EnumerateContext(ctx, specSRAM(1<<20, 512, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
