// Package study implements the paper's stacked last-level cache study
// (Sections 3 and 4): it uses CACTI-D to project every level of the
// 32 nm memory hierarchy (Table 3), builds the six system
// configurations (no L3; 24 MB SRAM; 48/72 MB LP-DRAM; 96/192 MB
// COMM-DRAM L3), runs the synthetic NPB workloads through the
// architectural simulator, and produces the data behind Figures 4(a),
// 4(b), 5(a) and 5(b) plus the stacking thermal check.
package study

import (
	"fmt"
	"math"

	"cactid/internal/core"
	"cactid/internal/crossbar"
	"cactid/internal/dram"
	"cactid/internal/sim"
	"cactid/internal/sim/memctl"
	"cactid/internal/sim/stats"
	"cactid/internal/sim/workload"
	"cactid/internal/tech"
	"cactid/internal/thermal"
)

// ClockHz is the study's core clock (2 GHz, set by the 32 KB L1
// access time as in Section 4.1).
const ClockHz = 2e9

// Names of the six system configurations, in the paper's order.
var ConfigNames = []string{"nol3", "sram", "lp_dram_ed", "lp_dram_c", "cm_dram_ed", "cm_dram_c"}

// Study holds all CACTI-D projections and derived simulator inputs.
type Study struct {
	Tech *tech.Technology

	L1, L2  *core.Solution
	L3      map[string]*core.Solution // keyed by config name (not nol3)
	MemChip *dram.Chip
	Xbar    *crossbar.Crossbar

	// Scale divides capacities and working sets for tractable
	// simulation (1 = full scale).
	Scale int64

	// InstrBudget is the total instruction budget per run.
	InstrBudget int64

	// UsePowerDown enables DRAM power-down modes in the simulated
	// memory controller and power model — the knob the paper's
	// conclusion suggests for the large standby-power share it
	// observes.
	UsePowerDown bool
}

// cyc converts seconds to CPU cycles, rounding up.
func cyc(t float64) int64 { return int64(math.Ceil(t * ClockHz)) }

// New builds all CACTI-D projections for the study. scale >= 1
// shrinks the simulated capacities/working sets by that factor
// (the CACTI-D projections themselves are always full-scale).
func New(scale int64, instrBudget int64) (*Study, error) {
	if scale < 1 {
		scale = 1
	}
	if instrBudget <= 0 {
		instrBudget = 48_000_000
	}
	s := &Study{
		Tech:        tech.New(tech.Node32),
		L3:          map[string]*core.Solution{},
		Scale:       scale,
		InstrBudget: instrBudget,
	}

	var err error
	// L1: 32KB 8-way SRAM, normal access.
	s.L1, err = core.Optimize(core.Spec{
		Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 32 << 10, BlockBytes: 64,
		Associativity: 8, Banks: 1, IsCache: true, Mode: core.Normal, MaxPipelineStages: 6,
	})
	if err != nil {
		return nil, fmt.Errorf("study: L1: %w", err)
	}
	// L2: 1MB 8-way SRAM.
	s.L2, err = core.Optimize(core.Spec{
		Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64,
		Associativity: 8, Banks: 1, IsCache: true, Mode: core.Normal, MaxPipelineStages: 6,
	})
	if err != nil {
		return nil, fmt.Errorf("study: L2: %w", err)
	}

	// L3 options (Table 3). Config ED favors energy and interleave
	// cycle with a loose area constraint; config C packs capacity
	// with a tight one.
	edWeights := &core.Weights{DynamicEnergy: 1, LeakagePower: 1, RandomCycle: 1, InterleaveCycle: 2}
	cWeights := &core.Weights{DynamicEnergy: 1, LeakagePower: 1, RandomCycle: 0.2, InterleaveCycle: 0.2}
	mk := func(name string, ram tech.RAMType, capacity int64, assoc, pageBits int,
		maxArea float64, w *core.Weights, mode core.AccessMode) error {
		sol, err := core.Optimize(core.Spec{
			Node: tech.Node32, RAM: ram, CapacityBytes: capacity, BlockBytes: 64,
			Associativity: assoc, Banks: 8, IsCache: true, Mode: mode,
			PageBits: pageBits, MaxPipelineStages: 6,
			MaxAreaConstraint: maxArea, MaxAcctimeConstraint: 0.3, Weights: w,
			SleepTransistors: ram == tech.SRAM,
		})
		if err != nil {
			return fmt.Errorf("study: L3 %s: %w", name, err)
		}
		s.L3[name] = sol
		return nil
	}
	if err := mk("sram", tech.SRAM, 24<<20, 12, 0, 0.4, edWeights, core.Normal); err != nil {
		return nil, err
	}
	if err := mk("lp_dram_ed", tech.LPDRAM, 48<<20, 12, 8192, 0.6, edWeights, core.Sequential); err != nil {
		return nil, err
	}
	if err := mk("lp_dram_c", tech.LPDRAM, 72<<20, 18, 16384, 0.05, cWeights, core.Sequential); err != nil {
		return nil, err
	}
	if err := mk("cm_dram_ed", tech.COMMDRAM, 96<<20, 12, 8192, 0.6, edWeights, core.Sequential); err != nil {
		return nil, err
	}
	if err := mk("cm_dram_c", tech.COMMDRAM, 192<<20, 24, 16384, 0.05, cWeights, core.Sequential); err != nil {
		return nil, err
	}

	// Main memory: 8Gb DDR4-3200 x8 devices at 32nm.
	s.MemChip, err = dram.NewChip(dram.ChipConfig{
		Tech: s.Tech, CapacityBits: 8 << 30, Banks: 8, DataPins: 8,
		BurstLength: 8, PageBits: 8192, DataRateMTps: 3200,
	})
	if err != nil {
		return nil, fmt.Errorf("study: main memory: %w", err)
	}

	// L2-L3 crossbar: 8x8, line-wide datapath, spanning the core die
	// (Niagara2 crossbar dimensions scaled to 32nm, Section 4.1).
	s.Xbar, err = crossbar.New(crossbar.Config{
		Tech: s.Tech, Device: tech.HP, Inputs: 8, Outputs: 8, Width: besteffortXbarWidth,
		SpanX: 4e-3, SpanY: 1.5e-3,
	})
	if err != nil {
		return nil, fmt.Errorf("study: crossbar: %w", err)
	}
	return s, nil
}

// besteffortXbarWidth: 64B line + address/command sideband.
const besteffortXbarWidth = 64*8 + 48

// memChipsPerAccess: x8 devices forming a 64-bit rank.
const memChipsPerAccess = 8

// totalMemChips: 2 channels x 1 rank x 8 chips.
const totalMemChips = 16

// CorePowerW is the core-die power, the 90nm Niagara scaled to 32nm
// with 8 FPUs (Section 4.3).
const CorePowerW = 22.3

// BusEnergyPerBit implements the paper's 2mW/Gb/s bus assumption.
const BusEnergyPerBit = 2e-12

// SimConfig builds the simulator configuration for one system config
// and benchmark.
func (s *Study) SimConfig(configName string, prof workload.Profile, seed uint64) sim.Config {
	prof.HotBytes /= s.Scale
	prof.WSBytes /= s.Scale

	var l3p *sim.L3Params
	if configName != "nol3" {
		sol := s.L3[configName]
		xbarCycles := cyc(s.Xbar.Delay)
		if xbarCycles < 1 {
			xbarCycles = 1
		}
		// Sequential-access caches (the DRAM L3s) pay the tag lookup
		// before the data access; normal-mode caches (the SRAM L3)
		// overlap them, so the whole access is one stage.
		tagC := int64(0)
		dataC := max(1, cyc(sol.AccessTime))
		if sol.Spec.Mode == core.Sequential && sol.Tag != nil {
			tagC = max(1, cyc(sol.Tag.AccessTime))
			dataC = max(1, cyc(sol.Data.AccessTime))
		}
		l3p = &sim.L3Params{
			CapacityBytes:  sol.Spec.CapacityBytes / s.Scale,
			Ways:           sol.Spec.Associativity,
			Banks:          8,
			TagCycles:      tagC,
			DataCycles:     dataC,
			BankBusyCycles: max(1, cyc(sol.InterleaveCycle)),
			CrossbarCycles: xbarCycles,
			PageBits:       int64(sol.Spec.PageBits),
		}
	}
	t := s.MemChip.Timing
	return sim.Config{
		Cores: 8, ThreadsPerCore: 4, LineBytes: 64,
		L1Bytes: (32 << 10) / s.Scale, L1Ways: 8,
		L2Bytes: (1 << 20) / s.Scale, L2Ways: 8,
		L1HitCycles: max(1, cyc(s.L1.AccessTime)),
		L2HitCycles: max(1, cyc(s.L2.AccessTime)),
		L3:          l3p,
		Mem: memctl.Config{
			Channels: 2, BanksPerChannel: 8,
			PageBytes: 8192, // 8Kb page x 8 chips / 8 bits
			LineBytes: 64,
			Policy:    memctl.OpenPage,
			Timing: memctl.Timing{
				TRCD: cyc(t.TRCD), CAS: cyc(t.CAS), TRP: cyc(t.TRP),
				TRAS: cyc(t.TRAS), TRC: cyc(t.TRC),
				TRRD: max(4, cyc(t.TRRD)/2), Burst: max(1, cyc(t.TBurst)),
			},
			PowerDown:      s.UsePowerDown,
			PowerDownAfter: 200, // 100ns idle threshold
			WakeupCycles:   12,  // tXP-style exit latency
		},
		Workload: prof, InstrBudget: s.InstrBudget, WarmupFrac: 0.3, Seed: seed,
	}
}

// Energies builds the power-model inputs for one configuration.
func (s *Study) Energies(configName string) stats.Energies {
	e := stats.Energies{
		ClockHz: ClockHz,
		EL1:     s.L1.EReadPerAccess,
		EL2:     s.L2.EReadPerAccess,
		EXbar:   s.Xbar.EnergyPerTx,
		// 16 L1 caches (8I + 8D) and 8 L2 caches.
		L1Leak:   16 * s.L1.LeakagePower,
		L2Leak:   8 * s.L2.LeakagePower,
		XbarLeak: s.Xbar.Leakage,

		MemChips: memChipsPerAccess, MemTotalChips: totalMemChips,
		EMemActivate:      s.MemChip.EActivate,
		EMemRead:          s.MemChip.ERead,
		EMemWrite:         s.MemChip.EWrite,
		MemStandbyPerChip: s.MemChip.StandbyPower,
		MemRefreshPerChip: s.MemChip.RefreshPower,
		BusEnergyPerBit:   BusEnergyPerBit,
		CorePower:         CorePowerW,
	}
	if s.UsePowerDown {
		e.MemChannels = 2
		e.PowerDownSaving = 0.85
	}
	if configName != "nol3" {
		sol := s.L3[configName]
		e.L3Leak = sol.LeakagePower
		e.L3Refresh = sol.RefreshPower
		if sol.Tag != nil {
			e.EL3Tag = sol.Tag.EReadTotal()
		}
		e.EL3Read = sol.Data.EReadTotal()
		e.EL3Write = sol.Data.EActivate + sol.Data.EWrite + sol.Data.EPrecharge
	}
	return e
}

// RunResult bundles a simulation outcome with its power breakdown.
type RunResult struct {
	Benchmark string
	Config    string
	Sim       *sim.Result
	Power     stats.Power
	EDP       float64
}

// Run executes one benchmark on one configuration.
func (s *Study) Run(benchmark, configName string, seed uint64) (*RunResult, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	cfg := s.SimConfig(configName, prof, seed)
	r := sim.Run(cfg)
	p := stats.Compute(r, s.Energies(configName))
	return &RunResult{
		Benchmark: benchmark,
		Config:    configName,
		Sim:       r,
		Power:     p,
		EDP:       stats.EDP(&p, r.Cycles, ClockHz),
	}, nil
}

// RunAll executes every benchmark on every configuration.
func (s *Study) RunAll(seed uint64) (map[string]map[string]*RunResult, error) {
	out := map[string]map[string]*RunResult{}
	for _, p := range workload.NPB() {
		out[p.Name] = map[string]*RunResult{}
		for _, cn := range ConfigNames {
			r, err := s.Run(p.Name, cn, seed)
			if err != nil {
				return nil, err
			}
			out[p.Name][cn] = r
		}
	}
	return out, nil
}

// PowerDownExperiment quantifies the paper's concluding suggestion:
// with DRAM power-down modes, how much of the main-memory standby
// power can be recovered on a given benchmark/configuration? It
// returns the runs without and with power-down.
func (s *Study) PowerDownExperiment(benchmark, configName string, seed uint64) (without, with *RunResult, err error) {
	saved := s.UsePowerDown
	defer func() { s.UsePowerDown = saved }()
	s.UsePowerDown = false
	without, err = s.Run(benchmark, configName, seed)
	if err != nil {
		return nil, nil, err
	}
	s.UsePowerDown = true
	with, err = s.Run(benchmark, configName, seed)
	if err != nil {
		return nil, nil, err
	}
	return without, with, nil
}

// ThermalDelta reproduces the Section 4.3 HotSpot check: the maximum
// steady-state temperature difference between stacking the hottest
// (SRAM) and coolest (COMM-DRAM) L3 die.
func (s *Study) ThermalDelta() (float64, error) {
	perBank := func(sol *core.Solution) float64 {
		// Leakage + refresh per bank plus a dynamic allowance.
		return (sol.LeakagePower+sol.RefreshPower)/8 + 0.01
	}
	hot, err := thermal.Solve(thermal.StackedLLC(CorePowerW, perBank(s.L3["sram"])))
	if err != nil {
		return 0, err
	}
	cold, err := thermal.Solve(thermal.StackedLLC(CorePowerW, perBank(s.L3["cm_dram_c"])))
	if err != nil {
		return 0, err
	}
	return hot.MaxOverall() - cold.MaxOverall(), nil
}

// ThermalLeakageEquilibrium solves the coupled thermal-leakage fixed
// point for a stacked L3 configuration: leakage depends exponentially
// on die temperature (tech.LeakageTempScale, tables referenced at the
// 85C worst-case corner) while die temperature depends on dissipated
// power. It returns the equilibrium L3-die temperature and the L3
// leakage power at that temperature.
func (s *Study) ThermalLeakageEquilibrium(configName string) (tempK, leakW float64, err error) {
	sol, ok := s.L3[configName]
	if !ok {
		return 0, 0, fmt.Errorf("study: unknown L3 config %q", configName)
	}
	leakRef := sol.LeakagePower // at the 358K table corner
	leakW = leakRef
	tempK = 358.0
	for i := 0; i < 50; i++ {
		perBank := (leakW+sol.RefreshPower)/8 + 0.01
		res, err := thermal.Solve(thermal.StackedLLC(CorePowerW, perBank))
		if err != nil {
			return 0, 0, err
		}
		newTemp := res.Max(1) // the L3 die
		newLeak := leakRef * tech.LeakageTempScale(newTemp)
		if math.Abs(newTemp-tempK) < 1e-3 && math.Abs(newLeak-leakW)/math.Max(leakW, 1e-12) < 1e-6 {
			return newTemp, newLeak, nil
		}
		tempK, leakW = newTemp, newLeak
	}
	return tempK, leakW, nil
}
