// Package validate reproduces the paper's model-validation exercises
// (Section 2.5): the 65 nm Intel Xeon 16 MB L3 SRAM cache (Figure 1's
// bubble chart), the 90 nm Sun SPARC 4 MB L2, and the 78 nm Micron
// 1 Gb DDR3-1066 x8 DRAM device (Table 2).
//
// Target values for the two SRAM caches are representative published
// figures ([8] Chang et al. JSSC 2007 and [22] McIntyre et al. JSSC
// 2005); the paper plots them as bubbles without tabulating, so the
// harness records the values used. The Micron targets are the actual
// values printed in the paper's Table 2.
package validate

import (
	"context"
	"fmt"
	"math"
	"strings"

	"cactid/internal/core"
	"cactid/internal/dram"
	"cactid/internal/tech"
)

// Bubble is one point of Figure 1: a design plotted by access time,
// total power, and area (bubble size).
type Bubble struct {
	Label      string
	AccessTime float64 // s
	Power      float64 // W (dynamic at the stated activity + leakage)
	Area       float64 // m^2
	IsTarget   bool
}

// XeonResult holds the Figure 1 reproduction.
type XeonResult struct {
	Targets   []Bubble // the two published-power bubbles
	Solutions []Bubble // CACTI-D solutions across constraint sweeps
	Best      Bubble   // best-access-time solution
	AvgError  float64  // mean |error| of Best vs first target (access, area, power)
}

// Xeon target: 65 nm 16 MB L3 [8], L3 clocked at half the 3.4 GHz
// core. The two power bubbles correspond to the two quoted dynamic
// powers (different activity assumptions).
const (
	xeonAccessTarget = 4.0e-9
	xeonAreaTarget   = 120e-6
	xeonLeakTarget   = 3.4
	xeonDynTargetA   = 2.2
	xeonDynTargetB   = 1.2
	xeonL3Clock      = 1.7e9 // accesses/s at activity factor 1.0
)

// Xeon runs the Figure 1 validation with no cancellation.
func Xeon() (*XeonResult, error) { return XeonContext(context.Background()) }

// XeonContext runs the Figure 1 validation: it sweeps the optimization
// constraints (max area, max access time, max repeater delay) within
// reasonable bounds, as the paper describes, and reports the solution
// bubbles alongside the target. The sweep runs 18 full solves; ctx
// cancels between (and, via the enumeration's slot loop, within) them.
func XeonContext(ctx context.Context) (*XeonResult, error) {
	r := &XeonResult{
		Targets: []Bubble{
			{Label: "Xeon L3 (dyn A)", AccessTime: xeonAccessTarget, Power: xeonDynTargetA + xeonLeakTarget, Area: xeonAreaTarget, IsTarget: true},
			{Label: "Xeon L3 (dyn B)", AccessTime: xeonAccessTarget, Power: xeonDynTargetB + xeonLeakTarget, Area: xeonAreaTarget, IsTarget: true},
		},
	}
	bestAcc := math.Inf(1)
	var best *core.Solution
	for _, maxArea := range []float64{0.1, 0.3, 0.6} {
		for _, maxAcc := range []float64{0.1, 0.3, 0.6} {
			for _, slack := range []float64{0, 0.3} {
				spec := core.Spec{
					Node: tech.Node65, RAM: tech.SRAM,
					CapacityBytes: 16 << 20, BlockBytes: 64, Associativity: 16, Banks: 1,
					IsCache: true, Mode: core.Sequential, SleepTransistors: true,
					MaxAreaConstraint: maxArea, MaxAcctimeConstraint: maxAcc,
					MaxRepeaterSlack: slack,
				}
				sols, err := core.ExploreContext(ctx, spec, nil)
				if err != nil {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					continue
				}
				filtered := core.Filter(spec, sols)
				if len(filtered) == 0 {
					continue
				}
				// Plot a spread of the surviving solutions, not just
				// the optimum, as the paper's bubble chart does.
				for _, idx := range []int{0, len(filtered) / 3, 2 * len(filtered) / 3, len(filtered) - 1} {
					sol := filtered[idx]
					b := solutionBubble(sol, xeonL3Clock,
						fmt.Sprintf("area<%.0f%% acc<%.0f%% slack %.0f%% #%d", maxArea*100, maxAcc*100, slack*100, idx))
					r.Solutions = append(r.Solutions, b)
					if sol.AccessTime < bestAcc {
						bestAcc = sol.AccessTime
						best = sol
						r.Best = b
					}
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("validate: no Xeon solutions")
	}
	r.AvgError = (relErr(r.Best.AccessTime, xeonAccessTarget) +
		relErr(r.Best.Area, xeonAreaTarget) +
		relErr(r.Best.Power, xeonDynTargetA+xeonLeakTarget)) / 3
	return r, nil
}

// SPARCResult holds the 90 nm SPARC L2 check.
type SPARCResult struct {
	Target   Bubble
	Best     Bubble
	AvgError float64
}

// SPARC targets: 90 nm 4 MB on-chip L2 of a 1.6 GHz 64-bit
// processor [22].
const (
	sparcAccessTarget = 2.5e-9
	sparcAreaTarget   = 60e-6
	sparcPowerTarget  = 3.3 // dynamic at 1.6 GHz + leakage
	sparcClock        = 1.6e9
)

// SPARC runs the 90 nm SPARC L2 validation with no cancellation.
func SPARC() (*SPARCResult, error) { return SPARCContext(context.Background()) }

// SPARCContext runs the 90 nm SPARC L2 validation.
func SPARCContext(ctx context.Context) (*SPARCResult, error) {
	sol, err := core.OptimizeContext(ctx, core.Spec{
		Node: tech.Node90, RAM: tech.SRAM,
		CapacityBytes: 4 << 20, BlockBytes: 64, Associativity: 4, Banks: 1,
		IsCache: true, Mode: core.Normal,
		MaxAreaConstraint: 0.3, MaxAcctimeConstraint: 0.3,
	}, nil)
	if err != nil {
		return nil, err
	}
	r := &SPARCResult{
		Target: Bubble{Label: "SPARC L2", AccessTime: sparcAccessTarget, Power: sparcPowerTarget, Area: sparcAreaTarget, IsTarget: true},
		Best:   solutionBubble(sol, sparcClock, "best"),
	}
	r.AvgError = (relErr(r.Best.AccessTime, sparcAccessTarget) +
		relErr(r.Best.Area, sparcAreaTarget) +
		relErr(r.Best.Power, sparcPowerTarget)) / 3
	return r, nil
}

func solutionBubble(sol *core.Solution, clock float64, label string) Bubble {
	return Bubble{
		Label:      label,
		AccessTime: sol.AccessTime,
		Power:      sol.EReadPerAccess*clock + sol.LeakagePower + sol.RefreshPower,
		Area:       sol.Area,
	}
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Metric string
	Actual float64 // the measured/datasheet value the paper prints
	Model  float64 // this implementation's CACTI-D value
	Unit   string
	// PaperError is the error the paper's own CACTI-D reported, for
	// side-by-side comparison.
	PaperError float64
}

// Error returns the relative error of the model against the actual
// value (signed).
func (r Table2Row) Error() float64 { return (r.Model - r.Actual) / r.Actual }

// Micron reproduces Table 2: model a 78 nm Micron 1 Gb DDR3-1066 x8
// device and compare against the paper's actual values.
func Micron() ([]Table2Row, *dram.Chip, error) {
	c, err := dram.NewChip(dram.ChipConfig{
		Tech: tech.New(78), CapacityBits: 1 << 30, Banks: 8, DataPins: 8,
		BurstLength: 8, PageBits: 8192, DataRateMTps: 1066,
	})
	if err != nil {
		return nil, nil, err
	}
	rows := []Table2Row{
		{"Area efficiency", 0.56, c.AreaEff, "", -0.062},
		{"Activation delay (tRCD)", 13.1e-9, c.Timing.TRCD, "ns", 0.045},
		{"CAS latency", 13.1e-9, c.Timing.CAS, "ns", -0.058},
		{"Row cycle time (tRC)", 52.5e-9, c.Timing.TRC, "ns", -0.082},
		{"ACTIVATE energy", 3.1e-9, c.EActivate, "nJ", -0.252},
		{"READ energy", 1.6e-9, c.ERead, "nJ", -0.322},
		{"WRITE energy", 1.8e-9, c.EWrite, "nJ", -0.33},
		{"Refresh power", 3.5e-3, c.RefreshPower, "mW", 0.29},
	}
	return rows, c, nil
}

// AvgAbsError returns the mean absolute relative error of Table 2.
func AvgAbsError(rows []Table2Row) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += math.Abs(r.Error())
	}
	return sum / float64(len(rows))
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// FormatTable2 renders the Table 2 comparison as text.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: CACTI-D DRAM model validation vs 78nm Micron 1Gb DDR3-1066 x8\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %10s %12s\n", "Metric", "Actual", "This model", "Error", "Paper error")
	for _, r := range rows {
		scale, unit := 1.0, r.Unit
		switch unit {
		case "ns":
			scale = 1e9
		case "nJ":
			scale = 1e9
		case "mW":
			scale = 1e3
		}
		fmt.Fprintf(&b, "%-28s %12.3g %12.3g %9.1f%% %11.1f%%\n",
			r.Metric, r.Actual*scale, r.Model*scale, r.Error()*100, r.PaperError*100)
	}
	fmt.Fprintf(&b, "Average |error|: %.1f%% (paper: 16%%)\n", AvgAbsError(rows)*100)
	return b.String()
}

// FormatBubbles renders Figure 1's data as text.
func FormatBubbles(r *XeonResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 1: 65nm Xeon 16MB L3 validation (access time, power, area bubbles)")
	fmt.Fprintf(&b, "%-32s %10s %10s %10s %s\n", "Design", "Access(ns)", "Power(W)", "Area(mm2)", "")
	for _, t := range r.Targets {
		fmt.Fprintf(&b, "%-32s %10.2f %10.2f %10.1f  <- target\n", t.Label, t.AccessTime*1e9, t.Power, t.Area*1e6)
	}
	seen := map[string]bool{}
	for _, s := range r.Solutions {
		key := fmt.Sprintf("%.3g/%.3g/%.3g", s.AccessTime, s.Power, s.Area)
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Fprintf(&b, "%-32s %10.2f %10.2f %10.1f\n", s.Label, s.AccessTime*1e9, s.Power, s.Area*1e6)
	}
	fmt.Fprintf(&b, "Best-access solution avg |error| vs target: %.1f%% (paper reports ~20%%)\n", r.AvgError*100)
	return b.String()
}

// EDRAMResult holds the secondary LP-DRAM validation against the
// compilable embedded-DRAM macro literature the paper builds its
// LP-DRAM model on ([12] Barth et al., JSSC 2005: a 500 MHz
// multi-banked compilable DRAM macro; [38] Wang et al.).
type EDRAMResult struct {
	AccessTime      float64 // s
	InterleaveCycle float64 // s
	RandomCycle     float64 // s
	AvgError        float64
}

// eDRAM macro targets: ~1.7 ns access latency and a per-bank row
// cycle around 8 ns, with 500 MHz (2 ns) effective operation achieved
// by cycling among banks - the operating point of a banked compilable
// macro in a 90nm-class logic process.
const (
	edramAccessTarget   = 1.7e-9
	edramRowCycleTarget = 8.0e-9
	edramEffectiveCycle = 2.0e-9
)

// EDRAMMacro validates the LP-DRAM model with no cancellation.
func EDRAMMacro() (*EDRAMResult, error) { return EDRAMMacroContext(context.Background()) }

// EDRAMMacroContext validates the LP-DRAM model against the published
// characteristics of IBM-class compilable eDRAM macros: a 2MB macro at
// 90 nm operated with an SRAM-like interface and multisubbank
// interleaving.
func EDRAMMacroContext(ctx context.Context) (*EDRAMResult, error) {
	sol, err := core.OptimizeContext(ctx, core.Spec{
		Node: tech.Node90, RAM: tech.LPDRAM,
		CapacityBytes: 2 << 20, BlockBytes: 32, Associativity: 1, Banks: 1,
		MaxPipelineStages: 6, MaxAreaConstraint: 0.8, MaxAcctimeConstraint: 0.3,
	}, nil)
	if err != nil {
		return nil, err
	}
	r := &EDRAMResult{
		AccessTime:      sol.AccessTime,
		InterleaveCycle: sol.InterleaveCycle,
		RandomCycle:     sol.RandomCycle,
	}
	r.AvgError = (relErr(r.AccessTime, edramAccessTarget) +
		relErr(r.RandomCycle, edramRowCycleTarget)) / 2
	return r, nil
}
