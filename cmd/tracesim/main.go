// Command tracesim drives the architectural simulator with
// user-provided memory traces (one CSV per thread, see
// workload.LoadTrace for the format) or a named synthetic NPB profile,
// over a hierarchy projected by CACTI-D, and prints performance and
// power results. This is the "bring your own workload" entry point to
// the simulation substrate.
//
// Usage:
//
//	tracesim -bench ft.B -config lp_dram_ed
//	tracesim -trace t0.csv -trace t1.csv ... -config cm_dram_c
package main

import (
	"flag"
	"fmt"
	"os"

	"cactid/internal/sim"
	"cactid/internal/sim/stats"
	"cactid/internal/sim/workload"
	"cactid/internal/study"
)

type traceList []string

func (t *traceList) String() string     { return fmt.Sprint(*t) }
func (t *traceList) Set(s string) error { *t = append(*t, s); return nil }

func main() {
	var traces traceList
	flag.Var(&traces, "trace", "CSV trace file (repeat once per thread; threads loop their traces)")
	var (
		bench  = flag.String("bench", "ft.B", "synthetic benchmark when no traces are given")
		config = flag.String("config", "cm_dram_c", "system configuration (nol3, sram, lp_dram_ed, lp_dram_c, cm_dram_ed, cm_dram_c)")
		scale  = flag.Int64("scale", 4, "capacity/working-set scaling divisor")
		instr  = flag.Float64("instr", 8e6, "total instruction budget")
		seed   = flag.Uint64("seed", 42, "workload seed (synthetic mode)")
	)
	flag.Parse()

	s, err := study.New(*scale, int64(*instr))
	if err != nil {
		fatal(err)
	}

	var r *study.RunResult
	if len(traces) > 0 {
		r, err = runTraces(s, traces, *config)
	} else {
		r, err = s.Run(*bench, *config, *seed)
	}
	if err != nil {
		fatal(err)
	}

	res := r.Sim
	fmt.Printf("configuration %s:\n", *config)
	fmt.Printf("  instructions    %d\n", res.Instrs)
	fmt.Printf("  cycles          %d\n", res.Cycles)
	fmt.Printf("  IPC             %.3f\n", res.IPC)
	fmt.Printf("  avg read lat    %.1f cycles\n", res.AvgReadLatency)
	fmt.Printf("  miss rates      L1 %.3f  L2 %.3f  L3 %.3f\n", res.L1MissRate, res.L2MissRate, res.L3MissRate)
	bd := res.Breakdown
	tot := float64(bd.Total())
	fmt.Printf("  cycle breakdown instr %.2f, L2 %.2f, L3 %.2f, mem %.2f, barrier %.2f, lock %.2f\n",
		float64(bd.Busy)/tot, float64(bd.L2)/tot, float64(bd.L3)/tot,
		float64(bd.Mem)/tot, float64(bd.Barrier)/tot, float64(bd.Lock)/tot)
	p := r.Power
	fmt.Printf("  power           hierarchy %.2fW, system %.2fW\n", p.MemoryHierarchy(), p.System())
	fmt.Printf("  energy-delay    %.4g J*s\n", r.EDP)
}

// runTraces loads the trace files and runs them on the configured
// system, replicating the last trace if fewer than 32 are given.
func runTraces(s *study.Study, files []string, config string) (*study.RunResult, error) {
	prof, err := workload.ByName("ft.B") // placeholder profile (unused fields)
	if err != nil {
		return nil, err
	}
	cfg := s.SimConfig(config, prof, 0)
	n := cfg.Cores * cfg.ThreadsPerCore
	sources := make([]workload.Source, n)
	for i := 0; i < n; i++ {
		path := files[min(i, len(files)-1)]
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		refs, err := workload.LoadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sources[i] = workload.NewTraceSource(refs)
	}
	cfg.Sources = sources
	res := sim.Run(cfg)
	// Power and EDP use the same accounting as the study.
	r := &study.RunResult{Benchmark: "trace", Config: config, Sim: res}
	r.Power = stats.Compute(res, s.Energies(config))
	r.EDP = stats.EDP(&r.Power, res.Cycles, study.ClockHz)
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracesim:", err)
	os.Exit(1)
}
