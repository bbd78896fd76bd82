package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"cactid/internal/tech"
)

func sramCache(capBytes int64, assoc, banks int) Spec {
	return Spec{
		Node: tech.Node32, RAM: tech.SRAM,
		CapacityBytes: capBytes, BlockBytes: 64, Associativity: assoc, Banks: banks,
		IsCache: true, Mode: Normal, MaxPipelineStages: 6,
	}
}

func TestOptimizeBasicCaches(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"L1-32KB", sramCache(32<<10, 8, 1)},
		{"L2-1MB", sramCache(1<<20, 8, 1)},
		{"plain-64KB", Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Optimize(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if s.AccessTime <= 0 || s.Area <= 0 || s.EReadPerAccess <= 0 || s.LeakagePower <= 0 {
				t.Fatalf("invalid solution %+v", s)
			}
			if s.AreaEff <= 0 || s.AreaEff >= 1 {
				t.Fatalf("area efficiency %g", s.AreaEff)
			}
			if tc.spec.IsCache && s.Tag == nil {
				t.Fatal("cache solution must carry a tag array")
			}
			if !tc.spec.IsCache && s.Tag != nil {
				t.Fatal("plain memory must not carry a tag array")
			}
		})
	}
}

func TestCapacityMonotonicity(t *testing.T) {
	small, err1 := Optimize(sramCache(256<<10, 8, 1))
	big, err2 := Optimize(sramCache(4<<20, 8, 1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if big.AccessTime <= small.AccessTime {
		t.Error("16x capacity should be slower")
	}
	if big.Area <= small.Area || big.LeakagePower <= small.LeakagePower {
		t.Error("16x capacity should be larger and leakier")
	}
}

func TestSequentialSavesEnergyCostsLatency(t *testing.T) {
	base := sramCache(4<<20, 8, 1)
	seq := base
	seq.Mode = Sequential
	n, err1 := Optimize(base)
	s, err2 := Optimize(seq)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s.EReadPerAccess >= n.EReadPerAccess {
		t.Errorf("sequential read energy %g not below normal %g", s.EReadPerAccess, n.EReadPerAccess)
	}
	if s.AccessTime <= n.AccessTime {
		t.Errorf("sequential access %g should exceed normal %g (tag first)", s.AccessTime, n.AccessTime)
	}
}

func TestTechnologyOrderingAtEqualCapacity(t *testing.T) {
	// 64MB L3 bank in the three technologies: COMM-DRAM densest,
	// SRAM fastest and leakiest — Table 1/Table 3's central tradeoff.
	mk := func(r tech.RAMType, mode AccessMode) *Solution {
		s, err := Optimize(Spec{
			Node: tech.Node32, RAM: r, CapacityBytes: 64 << 20, BlockBytes: 64,
			Associativity: 8, Banks: 8, IsCache: true, Mode: mode, MaxPipelineStages: 6,
		})
		if err != nil {
			t.Fatal(r, err)
		}
		return s
	}
	sr := mk(tech.SRAM, Normal)
	lp := mk(tech.LPDRAM, Sequential)
	cm := mk(tech.COMMDRAM, Sequential)
	if !(cm.Area < lp.Area && lp.Area < sr.Area) {
		t.Errorf("density ordering violated: SRAM %.1f, LP %.1f, CM %.1f mm2",
			sr.Area*1e6, lp.Area*1e6, cm.Area*1e6)
	}
	if !(sr.AccessTime < lp.AccessTime && lp.AccessTime < cm.AccessTime) {
		t.Errorf("speed ordering violated: SRAM %.2f, LP %.2f, CM %.2f ns",
			sr.AccessTime*1e9, lp.AccessTime*1e9, cm.AccessTime*1e9)
	}
	if !(sr.LeakagePower > lp.LeakagePower && lp.LeakagePower > cm.LeakagePower) {
		t.Errorf("leakage ordering violated: SRAM %.2g, LP %.2g, CM %.2g W",
			sr.LeakagePower, lp.LeakagePower, cm.LeakagePower)
	}
	if cm.RefreshPower <= 0 || lp.RefreshPower <= 0 || sr.RefreshPower != 0 {
		t.Error("refresh power signs wrong")
	}
	if lp.RefreshPower <= cm.RefreshPower {
		t.Error("LP-DRAM (0.12ms retention) must out-refresh COMM-DRAM (64ms)")
	}
}

func TestFilterStages(t *testing.T) {
	spec := sramCache(4<<20, 8, 1)
	sols, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) < 20 {
		t.Fatalf("only %d raw solutions", len(sols))
	}
	filtered := Filter(spec, sols)
	if len(filtered) == 0 || len(filtered) >= len(sols) {
		t.Fatalf("filter kept %d of %d", len(filtered), len(sols))
	}
	// Area constraint: every survivor within (1+0.4)x of best area.
	minArea := math.Inf(1)
	for _, s := range sols {
		minArea = math.Min(minArea, s.Area)
	}
	for _, s := range filtered {
		if s.Area > minArea*1.4001 {
			t.Errorf("survivor violates max area constraint: %g > %g", s.Area, minArea*1.4)
		}
	}
}

func TestTightAreaConstraintForcesDenserSolutions(t *testing.T) {
	loose := sramCache(8<<20, 8, 1)
	loose.MaxAreaConstraint = 0.8
	tight := sramCache(8<<20, 8, 1)
	tight.MaxAreaConstraint = 0.02
	l, err1 := Optimize(loose)
	ti, err2 := Optimize(tight)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if ti.Area > l.Area {
		t.Errorf("tight area constraint produced larger solution: %g > %g", ti.Area, l.Area)
	}
	if ti.AreaEff < l.AreaEff {
		t.Errorf("tight area constraint should raise efficiency: %g < %g", ti.AreaEff, l.AreaEff)
	}
}

func TestWeightsSteerObjective(t *testing.T) {
	base := Spec{
		Node: tech.Node32, RAM: tech.LPDRAM, CapacityBytes: 16 << 20, BlockBytes: 64,
		Associativity: 8, Banks: 1, IsCache: true, Mode: Sequential,
		MaxPipelineStages: 6, MaxAreaConstraint: 0.8, MaxAcctimeConstraint: 0.8,
	}
	eSpec := base
	eSpec.Weights = &Weights{DynamicEnergy: 100, LeakagePower: 0.01, RandomCycle: 0.01, InterleaveCycle: 0.01}
	cSpec := base
	cSpec.Weights = &Weights{DynamicEnergy: 0.01, LeakagePower: 0.01, RandomCycle: 100, InterleaveCycle: 0.01}
	e, err1 := Optimize(eSpec)
	c, err2 := Optimize(cSpec)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if e.EReadPerAccess > c.EReadPerAccess {
		t.Errorf("energy-weighted solution reads at %g > cycle-weighted %g", e.EReadPerAccess, c.EReadPerAccess)
	}
	if c.RandomCycle > e.RandomCycle {
		t.Errorf("cycle-weighted solution cycles at %g > energy-weighted %g", c.RandomCycle, e.RandomCycle)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{RAM: tech.SRAM, CapacityBytes: -1, BlockBytes: 64},
		{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 0},
		{RAM: tech.SRAM, CapacityBytes: 1000, BlockBytes: 64, Banks: 3},
	}
	for i, s := range bad {
		if _, err := Optimize(s); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestErrNoSolution(t *testing.T) {
	// A DRAM spec whose page constraint cannot be met.
	_, err := Optimize(Spec{
		Node: tech.Node32, RAM: tech.COMMDRAM, CapacityBytes: 1 << 20,
		BlockBytes: 64, PageBits: 7, // not expressible as subbank width
	})
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestTagBits(t *testing.T) {
	s := sramCache(1<<20, 8, 1)
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	// 1MB, 64B lines, 8-way: 2048 sets -> 11 index + 6 offset bits;
	// 40-bit PA -> 23 tag + 3 state = 26.
	if got := s.TagBits(); got != 26 {
		t.Errorf("TagBits = %d, want 26", got)
	}
}

func TestDRAMCacheTagsInDRAM(t *testing.T) {
	s := Spec{Node: tech.Node32, RAM: tech.COMMDRAM, CapacityBytes: 96 << 20,
		BlockBytes: 64, Associativity: 12, Banks: 8, IsCache: true, Mode: Sequential}
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if got := s.tagRAM(); got != tech.COMMDRAM {
		t.Errorf("DRAM cache tags default to %v, want COMM-DRAM", got)
	}
	sr := tech.SRAM
	s.TagRAM = &sr
	if got := s.tagRAM(); got != tech.SRAM {
		t.Error("explicit TagRAM override ignored")
	}
	s2 := sramCache(1<<20, 8, 1)
	if err := s2.normalize(); err != nil {
		t.Fatal(err)
	}
	if got := s2.tagRAM(); got != tech.SRAM {
		t.Errorf("SRAM cache tags = %v, want SRAM", got)
	}
}

func TestBanksScaleTotalsNotLatency(t *testing.T) {
	one, err1 := Optimize(sramCache(4<<20, 8, 1))
	eight, err2 := Optimize(sramCache(32<<20, 8, 8)) // same 4MB per bank
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Per-bank access time should be in the same ballpark.
	if r := eight.AccessTime / one.AccessTime; r > 1.5 || r < 0.67 {
		t.Errorf("per-bank access time changed %gx with bank count", r)
	}
	// Totals scale with banks.
	if r := eight.Area / one.Area; r < 6 || r > 10 {
		t.Errorf("8-bank area ratio %g, want ~8", r)
	}
	if r := eight.LeakagePower / one.LeakagePower; r < 6 || r > 10 {
		t.Errorf("8-bank leakage ratio %g, want ~8", r)
	}
}

func TestSolutionString(t *testing.T) {
	s, err := Optimize(sramCache(1<<20, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.String()) < 40 {
		t.Errorf("String too short: %q", s.String())
	}
}

func TestExploreSortedByAccessTime(t *testing.T) {
	sols, err := Explore(sramCache(1<<20, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sols); i++ {
		if sols[i].AccessTime < sols[i-1].AccessTime {
			t.Fatal("Explore result not sorted by access time")
		}
	}
}

func TestAccessModeString(t *testing.T) {
	if Normal.String() != "normal" || Sequential.String() != "sequential" {
		t.Error("AccessMode strings wrong")
	}
}

func TestReport(t *testing.T) {
	sol, err := Optimize(Spec{
		Node: tech.Node32, RAM: tech.LPDRAM, CapacityBytes: 8 << 20,
		BlockBytes: 64, Associativity: 8, Banks: 2, IsCache: true,
		Mode: Sequential, PageBits: 8192, MaxPipelineStages: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(sol)
	for _, want := range []string{
		"CACTI-D solution report", "wordline", "bitline", "sense amplifier",
		"restore/writeback", "interleave cycle", "refresh", "Tag array",
		"access time", "leakage",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// SRAM plain memory: no restore, no refresh, no tag.
	plain, err := Optimize(Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	prep := Report(plain)
	if strings.Contains(prep, "restore") || strings.Contains(prep, "refresh") || strings.Contains(prep, "Tag array") {
		t.Error("plain SRAM report has DRAM/tag sections")
	}
}

func TestFastModeTradesEnergyForLatency(t *testing.T) {
	base := sramCache(4<<20, 8, 1)
	fast := base
	fast.Mode = Fast
	n, err1 := Optimize(base)
	f, err2 := Optimize(fast)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if f.AccessTime > n.AccessTime {
		t.Errorf("fast mode access %g should not exceed normal %g", f.AccessTime, n.AccessTime)
	}
	if f.EReadPerAccess <= n.EReadPerAccess {
		t.Errorf("fast mode energy %g should exceed normal %g (all ways on the H-tree)",
			f.EReadPerAccess, n.EReadPerAccess)
	}
	if Fast.String() != "fast" {
		t.Error("Fast mode string wrong")
	}
}

func TestModeEnergyOrdering(t *testing.T) {
	// Sequential < Normal < Fast in read energy; Fast <= Normal <=
	// Sequential in access time: the classic CACTI mode triangle.
	spec := sramCache(2<<20, 8, 1)
	energies := map[AccessMode]float64{}
	times := map[AccessMode]float64{}
	for _, m := range []AccessMode{Sequential, Normal, Fast} {
		s := spec
		s.Mode = m
		sol, err := Optimize(s)
		if err != nil {
			t.Fatal(m, err)
		}
		energies[m] = sol.EReadPerAccess
		times[m] = sol.AccessTime
	}
	if !(energies[Sequential] < energies[Normal] && energies[Normal] < energies[Fast]) {
		t.Errorf("energy ordering violated: seq %g, normal %g, fast %g",
			energies[Sequential], energies[Normal], energies[Fast])
	}
	if !(times[Fast] <= times[Normal] && times[Normal] <= times[Sequential]) {
		t.Errorf("latency ordering violated: fast %g, normal %g, seq %g",
			times[Fast], times[Normal], times[Sequential])
	}
}

func TestBankRouting(t *testing.T) {
	base := sramCache(32<<20, 8, 8)
	routed := base
	routed.IncludeBankRouting = true
	b, err1 := Optimize(base)
	r, err2 := Optimize(routed)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r.AccessTime <= b.AccessTime {
		t.Errorf("bank routing should add latency: %g vs %g", r.AccessTime, b.AccessTime)
	}
	if r.EReadPerAccess <= b.EReadPerAccess {
		t.Error("bank routing should add energy")
	}
	if r.LeakagePower <= b.LeakagePower {
		t.Error("bank routing repeaters should leak")
	}
	// Single bank: flag is a no-op.
	one := sramCache(4<<20, 8, 1)
	oneRouted := one
	oneRouted.IncludeBankRouting = true
	a, err1 := Optimize(one)
	c, err2 := Optimize(oneRouted)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a.AccessTime != c.AccessTime {
		t.Error("bank routing must be a no-op for one bank")
	}
}

func TestMultiportedSRAM(t *testing.T) {
	base := Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 256 << 10, BlockBytes: 8}
	dual := base
	dual.Ports = 2
	b, err1 := Optimize(base)
	d, err2 := Optimize(dual)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if d.Area <= b.Area {
		t.Errorf("dual-port area %g not above single-port %g", d.Area, b.Area)
	}
	if d.LeakagePower <= b.LeakagePower {
		t.Error("extra port transistors should leak")
	}
	// Multiported DRAM is rejected.
	badPorts := Spec{Node: tech.Node32, RAM: tech.LPDRAM, CapacityBytes: 1 << 20, BlockBytes: 64, Ports: 2}
	if _, err := Optimize(badPorts); err == nil {
		t.Error("multiported DRAM should be rejected")
	}
}

func TestECCOverhead(t *testing.T) {
	base := sramCache(4<<20, 8, 1)
	ecc := base
	ecc.ECC = true
	b, err1 := Optimize(base)
	e, err2 := Optimize(ecc)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// SECDED adds 12.5% bits: area and read energy grow, bounded by
	// ~25% (organization choices add slack).
	if e.Area <= b.Area || e.Area > b.Area*1.3 {
		t.Errorf("ECC area ratio %.3f out of (1, 1.3]", e.Area/b.Area)
	}
	if e.EReadPerAccess <= b.EReadPerAccess {
		t.Error("ECC should add read energy")
	}
}

func TestOptimizeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeContext(ctx, sramCache(1<<20, 8, 1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveStatsAccounting(t *testing.T) {
	var st SolveStats
	if _, err := OptimizeContext(context.Background(), sramCache(1<<20, 8, 1), &Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	// A cache solve enumerates both the data and the tag array.
	if st.Data.Considered == 0 || st.Tag.Considered == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	total := st.Total()
	if total.Considered != st.Data.Considered+st.Tag.Considered {
		t.Fatalf("Total does not sum arrays: %+v", total)
	}
	if total.Considered != total.PrunedTotal()+total.Built+total.BuildErrors {
		t.Fatalf("accounting invariant broken: %+v", total)
	}
}
