// Package workload generates synthetic multithreaded memory-reference
// streams standing in for the NAS Parallel Benchmarks the paper runs
// under COTSon (Section 3.2). Each benchmark is characterized by the
// parameters the paper's analysis turns on (Section 4.2): working-set
// size relative to the cache hierarchy, locality of the post-L2
// stream, memory intensity, floating-point mix, data sharing, and
// barrier/lock cadence. Absolute IPCs are not reproduced — the
// grouping and ordering of configurations in Figures 4 and 5 are.
package workload

import (
	"fmt"
	"math"
)

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string

	// MemPerInstr is the fraction of instructions that reference
	// data memory.
	MemPerInstr float64
	// FPFrac is the fraction of non-memory instructions that are
	// floating-point (1 cycle each; others average 4 cycles).
	FPFrac float64
	// WriteFrac is the fraction of memory references that are writes.
	WriteFrac float64

	// HotBytes is the per-thread working set with immediate reuse
	// (intended to hit in L1/L2). HotFrac of references go there.
	HotBytes int64
	HotFrac  float64

	// WSBytes is the total (shared) working set of the remaining
	// references. RadialK shapes their locality: references fall at
	// radius WSBytes*u^RadialK for uniform u, so larger K
	// concentrates them near the start and a cache of capacity C
	// captures (C/WSBytes)^(1/RadialK) of them. K=1 is uniform
	// (cg.C-style, no locality); K=3-4 gives the "bigger L3 keeps
	// helping" behaviour of bt/is/mg/sp.
	WSBytes int64
	RadialK float64

	// SeqRun is the number of consecutive lines touched per cold
	// region visit (spatial locality).
	SeqRun int

	// SharedFrac of cold references go to a region shared by all
	// threads (drives MESI traffic).
	SharedFrac float64

	// BarrierEvery / LockEvery are mean instruction counts between
	// synchronization events per thread (0 = never).
	BarrierEvery int64
	LockEvery    int64
}

// NPB returns the synthetic profiles standing in for the paper's
// eight NPB applications, grouped as Section 4.2 groups them:
//
//   - ft.B, lu.C: working sets larger than the 8MB of L2 but small
//     enough to live in the DRAM L3s; lu.C overflows the 24MB SRAM L3.
//   - bt.C, is.C, mg.B, sp.C: working sets beyond even 192MB, with
//     locality, so every extra megabyte of L3 keeps helping.
//   - ua.C: very low L3 access frequency (L2 captures the hot set).
//   - cg.C: no post-L2 locality; all L3s fail to filter the stream.
func NPB() []Profile {
	return []Profile{
		{Name: "bt.C", MemPerInstr: 0.26, FPFrac: 0.45, WriteFrac: 0.32,
			HotBytes: 192 << 10, HotFrac: 0.93, WSBytes: 640 << 20, RadialK: 3.4,
			SeqRun: 8, SharedFrac: 0.04, BarrierEvery: 400_000, LockEvery: 0},
		{Name: "cg.C", MemPerInstr: 0.36, FPFrac: 0.30, WriteFrac: 0.12,
			HotBytes: 96 << 10, HotFrac: 0.80, WSBytes: 700 << 20, RadialK: 1.0,
			SeqRun: 1, SharedFrac: 0.06, BarrierEvery: 150_000, LockEvery: 0},
		{Name: "ft.B", MemPerInstr: 0.30, FPFrac: 0.42, WriteFrac: 0.38,
			HotBytes: 128 << 10, HotFrac: 0.86, WSBytes: 36 << 20, RadialK: 1.15,
			SeqRun: 16, SharedFrac: 0.05, BarrierEvery: 500_000, LockEvery: 0},
		{Name: "is.C", MemPerInstr: 0.38, FPFrac: 0.08, WriteFrac: 0.42,
			HotBytes: 128 << 10, HotFrac: 0.88, WSBytes: 900 << 20, RadialK: 3.0,
			SeqRun: 4, SharedFrac: 0.10, BarrierEvery: 120_000, LockEvery: 60_000},
		{Name: "lu.C", MemPerInstr: 0.28, FPFrac: 0.48, WriteFrac: 0.30,
			HotBytes: 160 << 10, HotFrac: 0.85, WSBytes: 44 << 20, RadialK: 1.1,
			SeqRun: 12, SharedFrac: 0.04, BarrierEvery: 0, LockEvery: 25_000},
		{Name: "mg.B", MemPerInstr: 0.34, FPFrac: 0.35, WriteFrac: 0.34,
			HotBytes: 128 << 10, HotFrac: 0.88, WSBytes: 420 << 20, RadialK: 2.8,
			SeqRun: 16, SharedFrac: 0.05, BarrierEvery: 100_000, LockEvery: 0},
		{Name: "sp.C", MemPerInstr: 0.30, FPFrac: 0.40, WriteFrac: 0.33,
			HotBytes: 160 << 10, HotFrac: 0.90, WSBytes: 560 << 20, RadialK: 3.2,
			SeqRun: 8, SharedFrac: 0.04, BarrierEvery: 300_000, LockEvery: 0},
		{Name: "ua.C", MemPerInstr: 0.22, FPFrac: 0.38, WriteFrac: 0.30,
			HotBytes: 192 << 10, HotFrac: 0.99, WSBytes: 300 << 20, RadialK: 2.0,
			SeqRun: 4, SharedFrac: 0.08, BarrierEvery: 0, LockEvery: 120_000},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range NPB() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Ref is one memory reference with the instruction gap preceding it.
type Ref struct {
	FPGap    int    // floating-point instructions since the last reference
	OtherGap int    // other non-memory instructions since the last reference
	Addr     uint64 // byte address
	Write    bool

	// Barrier/Lock mark a synchronization event occurring before
	// this reference.
	Barrier bool
	Lock    bool
}

// Generator produces the reference stream of one thread
// deterministically (same seed, same stream).
type Generator struct {
	p        Profile
	thread   int
	nthreads int
	rng      uint64

	hotBase    uint64
	coldBase   uint64
	sharedBase uint64

	instrSinceBarrier int64
	instrSinceLock    int64

	seqLeft int
	seqAddr uint64

	// Instrs counts all instructions generated so far (memory +
	// gaps), the budget the simulator runs against.
	Instrs int64
}

// Address-space layout (byte addresses): per-thread hot regions, the
// shared region, then the large cold working set shared across
// threads (threads interleave through it, as OpenMP loops do).
const (
	sharedRegionBase = 0x0000_0002_0000_0000
	coldRegionBase   = 0x0000_0004_0000_0000
	// Hot regions sit far above the cold region (which spans at most
	// a few GB from its base) so per-thread hot slots never collide
	// with cold addresses.
	hotRegionBase = 0x0000_0100_0000_0000
	lineBytes     = 64
)

// NewGenerator builds the stream generator for one thread.
func NewGenerator(p Profile, thread, nthreads int, seed uint64) *Generator {
	g := &Generator{
		p: p, thread: thread, nthreads: nthreads,
		rng:        seed ^ (uint64(thread)+1)*0x9E3779B97F4A7C15,
		hotBase:    hotRegionBase + uint64(thread)<<32,
		sharedBase: sharedRegionBase,
		coldBase:   coldRegionBase,
	}
	g.next() // warm the state
	return g
}

// next is a splitmix64 step.
func (g *Generator) next() uint64 {
	g.rng += 0x9E3779B97F4A7C15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uniform returns a float64 in [0,1).
func (g *Generator) uniform() float64 { return float64(g.next()>>11) / (1 << 53) }

// Next produces the next memory reference.
func (g *Generator) Next() Ref {
	var r Ref

	// Instruction gap to the next memory reference: geometric with
	// mean 1/MemPerInstr - 1.
	gap := 0
	meanGap := 1/g.p.MemPerInstr - 1
	for float64(gap) < meanGap*4 {
		if g.uniform() < 1/(meanGap+1) {
			break
		}
		gap++
	}
	for i := 0; i < gap; i++ {
		if g.uniform() < g.p.FPFrac {
			r.FPGap++
		} else {
			r.OtherGap++
		}
	}
	instrs := int64(gap + 1)
	g.Instrs += instrs

	// Synchronization.
	if g.p.BarrierEvery > 0 {
		g.instrSinceBarrier += instrs
		if g.instrSinceBarrier >= g.p.BarrierEvery {
			g.instrSinceBarrier = 0
			r.Barrier = true
		}
	}
	if g.p.LockEvery > 0 {
		g.instrSinceLock += instrs
		if g.instrSinceLock >= g.p.LockEvery {
			g.instrSinceLock = 0
			r.Lock = true
		}
	}

	// Address. Sequential runs make each cold visit produce ~1.5x
	// SeqRun references, so the visit probability is scaled to keep
	// HotFrac meaning "fraction of references that are hot".
	coldVisitP := 1 - g.p.HotFrac
	if g.p.SeqRun > 1 {
		coldVisitP /= 1.5 * float64(g.p.SeqRun)
	}
	pHot := g.p.HotFrac / (g.p.HotFrac + coldVisitP)
	switch {
	case g.seqLeft > 0:
		g.seqLeft--
		g.seqAddr += lineBytes
		r.Addr = g.seqAddr
	case g.uniform() < pHot:
		// Hot references concentrate further: 60% land in an
		// L1-resident core (stack frames, reduction variables) of
		// 1/16th the hot region.
		region := uint64(g.p.HotBytes)
		if g.uniform() < 0.6 {
			region /= 16
			if region < 2*lineBytes {
				region = 2 * lineBytes
			}
		}
		off := g.next() % region
		r.Addr = g.hotBase + off&^uint64(lineBytes-1)
	default:
		radius := math.Pow(g.uniform(), g.p.RadialK)
		if g.uniform() < g.p.SharedFrac {
			off := uint64(radius * float64(min(g.p.WSBytes/8, 64<<20)))
			r.Addr = g.sharedBase + off&^uint64(lineBytes-1)
		} else {
			// Each thread owns a contiguous slab of the cold region
			// (an OpenMP static block schedule). The radial reuse
			// distribution selects a 64KB block (so caches see the
			// capacity curve at block granularity) and the reference
			// lands uniformly inside it (so set coverage stays
			// uniform and no single DRAM page is hammered).
			slab := uint64(g.p.WSBytes) / uint64(g.nthreads)
			const blockBytes = 64 << 10
			nBlocks := slab / blockBytes
			if nBlocks == 0 {
				nBlocks = 1
			}
			block := uint64(radius * float64(nBlocks))
			if block >= nBlocks {
				block = nBlocks - 1
			}
			off := block*blockBytes + g.next()%blockBytes
			r.Addr = (g.coldBase + uint64(g.thread)*slab + off) &^ uint64(lineBytes-1)
		}
		if g.p.SeqRun > 1 {
			g.seqLeft = g.p.SeqRun - 1 + int(g.next()%uint64(g.p.SeqRun))
			g.seqAddr = r.Addr
		}
	}
	r.Write = g.uniform() < g.p.WriteFrac
	return r
}
