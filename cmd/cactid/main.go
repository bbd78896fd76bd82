// Command cactid is the CLI front-end of the CACTI-D model: it takes
// a cache or memory specification and prints the optimized solution
// (or, with -explore, the whole design space). It can also print the
// technology characteristics table (-table1) and model a main-memory
// DRAM chip (-chip).
//
// Examples:
//
//	cactid -size 4MB -assoc 8 -node 32 -ram sram
//	cactid -size 96MB -assoc 12 -banks 8 -ram comm-dram -mode sequential -page 8192
//	cactid -chip -size 1Gb -node 78 -pins 8 -burst 8 -page 8192 -rate 1066
//	cactid -table1 -node 32
//
// Sizes, memory types and access modes are parsed by internal/explore,
// so the CLI takes the vocabulary of the cactid-serve HTTP API.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"cactid/internal/core"
	"cactid/internal/dram"
	"cactid/internal/explore"
	"cactid/internal/tech"
)

func main() {
	var (
		size      = flag.String("size", "1MB", "capacity (e.g. 32KB, 4MB; for -chip: 1Gb as 128MB)")
		block     = flag.Int("block", 64, "block size in bytes")
		assoc     = flag.Int("assoc", 1, "associativity (1 = direct-mapped / plain memory)")
		banks     = flag.Int("banks", 1, "number of banks")
		node      = flag.Int("node", 32, "technology node in nm (32-90)")
		ram       = flag.String("ram", "sram", "memory technology: sram, lp-dram, comm-dram")
		techName  = flag.String("tech", "", "technology provider (itrs, itrs-sram, stt-ram, pcm, gain-cell, ...; empty = itrs)")
		isCache   = flag.Bool("cache", true, "model a cache (tags + way select)")
		mode      = flag.String("mode", "normal", "access mode: normal, sequential, or fast")
		page      = flag.Int("page", 0, "DRAM page size in bits (0 = unconstrained)")
		pipe      = flag.Int("pipeline", 8, "max pipeline stages")
		maxArea   = flag.Float64("maxarea", 0.4, "max area constraint (fraction over best)")
		maxAcc    = flag.Float64("maxacctime", 0.1, "max access time constraint")
		slack     = flag.Float64("repeaterslack", 0, "max repeater delay slack")
		sleep     = flag.Bool("sleep", false, "model sleep transistors")
		doExplore = flag.Bool("explore", false, "print the full solution space")
		report    = flag.Bool("report", false, "print the detailed CACTI-style breakdown")
		asJSON    = flag.Bool("json", false, "print the solution as JSON")
		table1    = flag.Bool("table1", false, "print the Table 1 technology characteristics")
		chip      = flag.Bool("chip", false, "model a main-memory DRAM chip")
		pins      = flag.Int("pins", 8, "chip: data pins (x4/x8/x16)")
		burst     = flag.Int("burst", 8, "chip: burst length")
		rate      = flag.Float64("rate", 1066, "chip: data rate in MT/s")
		idd       = flag.Bool("idd", false, "chip: also print the datasheet-style IDD report")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles = startProfiles(*cpuprof, *memprof)
	defer stopProfiles()

	if *table1 {
		fmt.Print(tech.FormatTable1(tech.Node(*node)))
		return
	}

	capBytes, err := explore.ParseSize(*size)
	if err != nil {
		fatal(err)
	}

	if *chip {
		pageBits := *page
		if pageBits == 0 {
			pageBits = 8192
		}
		c, err := dram.NewChip(dram.ChipConfig{
			Tech:         tech.New(tech.Node(*node)),
			CapacityBits: capBytes * 8, Banks: *banks, DataPins: *pins,
			BurstLength: *burst, PageBits: pageBits, DataRateMTps: *rate,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(c)
		fmt.Printf("  area %.1f mm2, efficiency %.1f%%\n", c.Area*1e6, c.AreaEff*100)
		fmt.Printf("  tRCD %.2fns  CL %.2fns  tRP %.2fns  tRAS %.2fns  tRC %.2fns  tRRD %.2fns\n",
			c.Timing.TRCD*1e9, c.Timing.CAS*1e9, c.Timing.TRP*1e9,
			c.Timing.TRAS*1e9, c.Timing.TRC*1e9, c.Timing.TRRD*1e9)
		fmt.Printf("  ACT %.3gnJ  RD %.3gnJ  WR %.3gnJ  refresh %.3gmW  standby %.3gmW\n",
			c.EActivate*1e9, c.ERead*1e9, c.EWrite*1e9, c.RefreshPower*1e3, c.StandbyPower*1e3)
		if *idd {
			fmt.Print(c.IDDReport())
		}
		return
	}

	ramType, err := explore.ParseRAM(*ram)
	if err != nil {
		fatal(err)
	}
	am, err := explore.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	spec := core.Spec{
		Node: tech.Node(*node), RAM: ramType, Technology: *techName,
		CapacityBytes: capBytes, BlockBytes: *block,
		Associativity: *assoc, Banks: *banks,
		IsCache: *isCache && *assoc > 0, Mode: am,
		PageBits: *page, MaxPipelineStages: *pipe,
		MaxAreaConstraint: *maxArea, MaxAcctimeConstraint: *maxAcc,
		MaxRepeaterSlack: *slack, SleepTransistors: *sleep,
	}
	if *doExplore {
		sols, err := core.Explore(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d feasible organizations:\n", len(sols))
		for _, s := range core.Filter(spec, sols) {
			fmt.Println(" ", s)
		}
		return
	}
	sol, err := core.OptimizeContext(context.Background(), spec, nil)
	if err != nil {
		fatal(err)
	}
	if *report {
		fmt.Print(core.Report(sol))
		return
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, sol); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(sol)
	fmt.Printf("  access %.3fns  random cycle %.3fns  interleave cycle %.3fns (%d pipeline stages)\n",
		sol.AccessTime*1e9, sol.RandomCycle*1e9, sol.InterleaveCycle*1e9, sol.Data.PipelineStages)
	fmt.Printf("  area %.3f mm2 (%.3f per bank), efficiency %.1f%%\n",
		sol.Area*1e6, sol.BankArea*1e6, sol.AreaEff*100)
	fmt.Printf("  read %.3gnJ  write %.3gnJ  leakage %.3gW  refresh %.3gW\n",
		sol.EReadPerAccess*1e9, sol.EWritePerAccess*1e9, sol.LeakagePower, sol.RefreshPower)
	if sol.WriteTime > 0 || sol.WriteEndurance > 0 {
		fmt.Printf("  write completes %.3fns  endurance %.3g cycles\n",
			sol.WriteTime*1e9, sol.WriteEndurance)
	}
	if sol.Tag != nil {
		fmt.Printf("  tag array: %v\n", sol.Tag.Org)
	}
}

// writeJSON prints the solution as indented JSON and a newline, byte
// for byte as cactid-serve answers /v1/solve.
func writeJSON(w io.Writer, sol *core.Solution) error {
	out, err := explore.AppendSolutionJSON(nil, sol, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// stopProfiles flushes any active profiles; fatal must call it because
// os.Exit skips main's deferred call.
var stopProfiles = func() {}

// startProfiles starts a CPU profile and arranges a heap profile
// snapshot, returning an idempotent flush-and-close function.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cactid:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cactid:", err)
			}
		}
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "cactid:", err)
	os.Exit(1)
}
