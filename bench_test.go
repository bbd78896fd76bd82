// Package cactid's root benchmark harness regenerates every table and
// figure of the paper, one benchmark per artifact:
//
//	BenchmarkTable1              - technology characteristics (Table 1)
//	BenchmarkFigure1Xeon         - 65nm Xeon L3 SRAM validation sweep (Figure 1)
//	BenchmarkTable2Micron        - 78nm Micron DDR3-1066 validation (Table 2)
//	BenchmarkTable3Projections   - 32nm hierarchy projections (Table 3)
//	BenchmarkFigure4aIPC         - IPC / read latency runs (Figure 4a)
//	BenchmarkFigure4bBreakdown   - execution-cycle breakdown (Figure 4b)
//	BenchmarkFigure5aPower       - memory-hierarchy power (Figure 5a)
//	BenchmarkFigure5bEDP         - system power + energy-delay (Figure 5b)
//	BenchmarkThermal             - stacked-die thermal check (Section 4.3)
//
// plus micro-benchmarks of the substrates (solver enumeration, mat
// evaluation, DRAM chip model, simulator throughput). Run with:
//
//	go test -bench=. -benchmem
package cactid

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/dram"
	"cactid/internal/explore"
	"cactid/internal/mat"
	"cactid/internal/sim/stats"
	"cactid/internal/study"
	"cactid/internal/tech"
	"cactid/internal/validate"
)

var (
	studyOnce sync.Once
	theStudy  *study.Study
	studyErr  error
)

func getStudy(b *testing.B) *study.Study {
	b.Helper()
	studyOnce.Do(func() {
		theStudy, studyErr = study.New(8, 2_000_000)
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return theStudy
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := tech.Table1(tech.Node32); len(rows) != 9 {
			b.Fatal("Table 1 wrong")
		}
	}
}

func BenchmarkFigure1Xeon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := validate.Xeon()
		if err != nil || r.AvgError > 0.25 {
			b.Fatalf("Xeon validation failed: %v / %.2f", err, r.AvgError)
		}
	}
}

func BenchmarkTable2Micron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := validate.Micron()
		if err != nil || validate.AvgAbsError(rows) > 0.16 {
			b.Fatal("Micron validation failed")
		}
	}
}

func BenchmarkTable3Projections(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.Table3(); len(rows) != 8 {
			b.Fatal("Table 3 wrong")
		}
	}
}

// figureRun executes a representative slice of the study sweep (one
// L3-sensitive and one L3-insensitive benchmark on the paper's
// baseline and best configurations).
func figureRun(b *testing.B) map[string]map[string]*study.RunResult {
	b.Helper()
	s := getStudy(b)
	runs := map[string]map[string]*study.RunResult{}
	for _, bm := range []string{"ft.B", "cg.C"} {
		runs[bm] = map[string]*study.RunResult{}
		for _, cn := range []string{"nol3", "sram", "cm_dram_c"} {
			r, err := s.Run(bm, cn, 42)
			if err != nil {
				b.Fatal(err)
			}
			runs[bm][cn] = r
		}
	}
	return runs
}

func BenchmarkFigure4aIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := figureRun(b)
		if runs["ft.B"]["cm_dram_c"].Sim.IPC <= runs["ft.B"]["nol3"].Sim.IPC {
			b.Fatal("Figure 4a shape violated: L3 must help ft.B")
		}
	}
}

func BenchmarkFigure4bBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := figureRun(b)
		no := runs["ft.B"]["nol3"].Sim.Breakdown
		if no.Mem <= no.Busy {
			b.Fatal("Figure 4b shape violated: nol3 ft.B must be memory-bound")
		}
	}
}

func BenchmarkFigure5aPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := figureRun(b)
		sram := runs["cg.C"]["sram"].Power
		cm := runs["cg.C"]["cm_dram_c"].Power
		if sram.MemoryHierarchy() <= cm.MemoryHierarchy() {
			b.Fatal("Figure 5a shape violated: SRAM L3 must burn more than COMM-DRAM")
		}
	}
}

func BenchmarkFigure5bEDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := figureRun(b)
		if runs["ft.B"]["cm_dram_c"].EDP >= runs["ft.B"]["nol3"].EDP {
			b.Fatal("Figure 5b shape violated: COMM-DRAM L3 must improve ft.B EDP")
		}
	}
}

func BenchmarkThermal(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.ThermalDelta()
		if err != nil || d > 1.5 {
			b.Fatalf("thermal check failed: %v / %.2fK", err, d)
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkMatModel(b *testing.B) {
	t := tech.New(tech.Node32)
	for i := 0; i < b.N; i++ {
		if _, err := mat.New(mat.Config{Tech: t, RAM: tech.COMMDRAM, Rows: 512, Cols: 512, DegBLMux: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArrayEnumerate(b *testing.B) {
	t := tech.New(tech.Node32)
	spec := array.Spec{Tech: t, RAM: tech.SRAM, CapacityBytes: 1 << 20, OutputBits: 512, AssocReadout: 1}
	for i := 0; i < b.N; i++ {
		if banks := array.Enumerate(spec); len(banks) == 0 {
			b.Fatal("no organizations")
		}
	}
}

func BenchmarkSolverOptimize(b *testing.B) {
	spec := core.Spec{
		Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 4 << 20,
		BlockBytes: 64, Associativity: 8, IsCache: true,
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// solveSpecs are the representative single-solve workloads of
// BenchmarkSolve: an SRAM cache, a sequential-mode COMM-DRAM cache
// (the LLC study's configuration style) and a plain COMM-DRAM memory,
// each at 45 and 32 nm.
func solveSpecs() map[string]core.Spec {
	specs := map[string]core.Spec{}
	for _, node := range []tech.Node{tech.Node45, tech.Node32} {
		specs[fmt.Sprintf("sram-cache-%d", node)] = core.Spec{
			Node: node, RAM: tech.SRAM, CapacityBytes: 4 << 20,
			BlockBytes: 64, Associativity: 8, IsCache: true,
		}
		specs[fmt.Sprintf("dram-cache-seq-%d", node)] = core.Spec{
			Node: node, RAM: tech.COMMDRAM, CapacityBytes: 64 << 20,
			BlockBytes: 64, Associativity: 8, IsCache: true,
			Mode: core.Sequential, PageBits: 8192, MaxPipelineStages: 6,
		}
		specs[fmt.Sprintf("dram-plain-%d", node)] = core.Spec{
			Node: node, RAM: tech.COMMDRAM, CapacityBytes: 64 << 20,
			BlockBytes: 64, PageBits: 8192,
		}
	}
	return specs
}

// BenchmarkSolve measures one core.Optimize call with no result
// cache — the cost of a /v1/solve request or a cold-cache sweep cell.
// The first iteration fills the process-wide mat-stage table
// (internal/array) and every later one reuses it, as every solve of a
// technology after its first does in a running server;
// BenchmarkMatTable in internal/array times the array layer with the
// table warm and cold, and TestSolveAllocBudget holds each spec's
// bytes per warm solve under 6 KB. Run with `make bench` for
// benchstat-ready output.
func BenchmarkSolve(b *testing.B) {
	specs := solveSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := specs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDRAMChip(b *testing.B) {
	t78 := tech.New(78)
	for i := 0; i < b.N; i++ {
		_, err := dram.NewChip(dram.ChipConfig{
			Tech: t78, CapacityBits: 1 << 30, Banks: 8, DataPins: 8,
			BurstLength: 8, PageBits: 8192, DataRateMTps: 1066,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// sweepSpecs is a 64-point SRAM cache grid (4 capacities x 4
// associativities x 2 block sizes x 2 access modes) for the
// exploration-engine benchmarks.
func sweepSpecs(b *testing.B) []core.Spec {
	b.Helper()
	g := explore.Grid{
		Base: core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
			MaxPipelineStages: 6},
		Capacities: []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10},
		Assocs:     []int{1, 2, 4, 8},
		Blocks:     []int{32, 64},
		Modes:      []core.AccessMode{core.Normal, core.Sequential},
	}
	specs, skipped := g.Expand()
	if len(specs) != 64 || skipped != 0 {
		b.Fatalf("grid expanded to %d specs, %d skipped", len(specs), skipped)
	}
	return specs
}

func checkSweep(b *testing.B, results []explore.Result) {
	b.Helper()
	for _, r := range results {
		if r.Err != nil || r.Solution == nil {
			b.Fatalf("point %d failed: %v", r.Index, r.Err)
		}
	}
}

// dseTiles returns 16 grids shaped like the end-to-end benchmark's
// dse-cold sweeps (bench/workloads.go): a (technology, node, RAM type,
// block) base crossed with a group of access modes, bank counts,
// capacities and associativities, expanded as the server expands a
// /v1/sweep body. Together they cover every provider and the four
// ITRS nodes.
func dseTiles(b testing.TB) [][]core.Spec {
	b.Helper()
	providers := tech.Providers()
	capGroups := [][]string{{"16KB", "32KB", "64KB"}, {"128KB", "256KB", "512KB", "1MB"},
		{"2MB", "4MB", "8MB"}, {"16MB", "32MB", "64MB"}}
	tiles := make([][]core.Spec, 16)
	for k := range tiles {
		sr := explore.SweepRequest{
			Base: explore.SpecRequest{
				Technology: providers[k%len(providers)],
				NodeNM:     []int{90, 65, 45, 32}[k%4],
				RAM:        []string{"sram", "lp-dram", "comm-dram"}[k%3],
				BlockBytes: []int{16, 32, 64, 128, 256}[k%5],
			},
			Modes:           [][]string{{"normal"}, {"sequential", "fast"}}[k%2],
			Banks:           [][]int{{1, 2}, {4, 8}}[k/2%2],
			Capacities:      capGroups[k/4%4],
			Associativities: [][]int{{1, 2}, {4, 8, 16}}[k/3%2],
		}
		g, err := sr.Grid()
		if err != nil {
			b.Fatal(err)
		}
		tiles[k], _ = g.Expand()
	}
	return tiles
}

// BenchmarkExploreSweep measures the batch engine over the 64-point
// grid: serial vs parallel worker pools, cold vs warm result cache,
// and the warm sweep rendered as JSON or CSV. The warm cases are the
// zero-solver-call path every repeated or overlapping sweep takes.
// tiles-cold sweeps 16 dse-style tiles, one Sweep call each as one
// /v1/sweep request is, through a cold parallel engine.
func BenchmarkExploreSweep(b *testing.B) {
	specs := sweepSpecs(b)
	ctx := context.Background()
	b.Run("serial-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := explore.New(explore.Options{Workers: 1})
			checkSweep(b, e.Sweep(ctx, specs))
		}
		b.ReportMetric(float64(len(specs)), "points/op")
	})
	b.Run("parallel-cold", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			e := explore.New(explore.Options{Workers: workers})
			checkSweep(b, e.Sweep(ctx, specs))
		}
		b.ReportMetric(float64(len(specs)), "points/op")
	})
	b.Run("tiles-cold", func(b *testing.B) {
		tiles := dseTiles(b)
		points := 0
		for _, tile := range tiles {
			points += len(tile)
		}
		for i := 0; i < b.N; i++ {
			e := explore.New(explore.Options{})
			for _, tile := range tiles {
				e.Sweep(ctx, tile)
			}
		}
		b.ReportMetric(float64(points), "points/op")
	})
	b.Run("parallel-warm", func(b *testing.B) {
		e := explore.New(explore.Options{})
		checkSweep(b, e.Sweep(ctx, specs)) // fill the cache
		before := e.Stats().Solves
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkSweep(b, e.Sweep(ctx, specs))
		}
		b.StopTimer()
		if e.Stats().Solves != before {
			b.Fatal("warm sweep re-ran the solver")
		}
		b.ReportMetric(float64(len(specs)), "points/op")
	})
	// The warm sweep plus its rendering: the whole hit path of a
	// repeated /v1/sweep (fingerprint, tier 0, encoding) short of HTTP.
	for _, export := range []struct {
		name  string
		write func(io.Writer, []explore.Result) error
	}{
		{"parallel-warm-json", func(w io.Writer, results []explore.Result) error {
			b, err := explore.AppendResultsJSON(nil, results, "", "  ")
			if err == nil {
				_, err = w.Write(b)
			}
			return err
		}},
		{"parallel-warm-csv", explore.WriteCSV},
	} {
		b.Run(export.name, func(b *testing.B) {
			e := explore.New(explore.Options{})
			checkSweep(b, e.Sweep(ctx, specs)) // fill the cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := e.Sweep(ctx, specs)
				checkSweep(b, results)
				if err := export.write(io.Discard, results); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(specs)), "points/op")
		})
	}
}

func BenchmarkSimulator(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := s.Run("ua.C", "cm_dram_c", uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Sim.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkPowerModel(b *testing.B) {
	s := getStudy(b)
	r, err := s.Run("cg.C", "lp_dram_ed", 1)
	if err != nil {
		b.Fatal(err)
	}
	e := s.Energies("lp_dram_ed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stats.Compute(r.Sim, e)
		if p.System() <= 0 {
			b.Fatal("bad power")
		}
	}
}
