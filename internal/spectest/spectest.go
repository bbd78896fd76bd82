// Package spectest draws seeded core.Spec values for differential and
// property tests: one generator over the whole spec space, shared by
// every package that tests solves, fingerprints, sweeps, the wire and
// the store on generated specs. Only test files import it
// (TestOnlyTestsImport holds that).
//
// A draw can be anything a client could send: every technology
// provider and the empty default, every RAM type and tag RAM, the ITRS
// nodes, the interpolated 78 nm and the defaulted 0, caches and plain
// memories in all three access modes, 0-8 banks with or without bank
// routing, ECC, sleep transistors, two ports, page sizes, pipelining
// caps, repeater slack, area and access-time cuts and objective
// weights. One numeric field in sixteen takes an edge value instead:
// negative, zero, huge or unsized integers and negative, subnormal,
// infinite or NaN floats. The draw favours specs that solve, so most
// are valid specs the bounded solver applies to, and some are not; a
// test that needs valid, boundable or distinct specs filters the
// draws with its own predicate.
package spectest

import (
	"math"
	"math/rand/v2"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// The edge values a numeric field takes one time in sixteen.
var (
	edgeInts   = []int{-3, 0, 1, 2, 6, 8, 40, 8192, 1 << 20, math.MaxInt32}
	edgeFloats = []float64{0, 0.4, 0.1, -0.25, 3, 1e-300, 5e-324, 1e21, -1e-7,
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	// The per-bank capacity is 2^k bytes: 16 KB-32 MB, or at the
	// edge 1 KB-512 MB.
	commonCapShifts = []int{14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}
	edgeCapShifts   = []int{10, 11, 12, 13, 26, 27, 28, 29}
)

// pick returns an element of common, or one time in sixteen an element
// of edge.
func pick[T any](r *rand.Rand, common, edge []T) T {
	if r.IntN(16) == 0 {
		return edge[r.IntN(len(edge))]
	}
	return common[r.IntN(len(common))]
}

// Spec draws one spec from r.
func Spec(r *rand.Rand) core.Spec {
	providers := append(tech.Providers(), "")
	s := core.Spec{
		Technology:           providers[r.IntN(len(providers))],
		Node:                 []tech.Node{0, 32, 45, 65, 78, 90}[r.IntN(6)],
		RAM:                  tech.RAMType(r.IntN(tech.NumRAMTypes)),
		BlockBytes:           []int{32, 64, 128}[r.IntN(3)],
		Associativity:        pick(r, []int{1, 2, 4, 8, 16}, edgeInts),
		Banks:                r.IntN(9),
		IsCache:              r.IntN(4) != 0,
		Mode:                 core.AccessMode(r.IntN(3)),
		PageBits:             pick(r, []int{0, 0, 0, 0, 0, 0, 0, 0, 1024, 2048, 4096, 8192}, edgeInts),
		MaxPipelineStages:    pick(r, []int{0, 6}, edgeInts),
		MaxAreaConstraint:    pick(r, []float64{0}, edgeFloats),
		MaxAcctimeConstraint: pick(r, []float64{0}, edgeFloats),
		MaxRepeaterSlack:     pick(r, []float64{0, 0, 0.2}, edgeFloats),
		SleepTransistors:     r.IntN(4) == 0,
		Ports:                pick(r, []int{0}, edgeInts),
		ECC:                  r.IntN(3) == 0,
		IncludeBankRouting:   r.IntN(8) == 0,
		PhysicalAddressBits:  pick(r, []int{0}, edgeInts),
	}
	s.CapacityBytes = int64(max(s.Banks, 1)) << pick(r, commonCapShifts, edgeCapShifts)
	if r.IntN(8) == 0 {
		f := func() float64 { return edgeFloats[r.IntN(len(edgeFloats))] }
		s.Weights = &core.Weights{DynamicEnergy: f(), LeakagePower: f(), RandomCycle: f(), InterleaveCycle: f()}
	}
	if r.IntN(16) == 0 {
		s.Ports = 2 // SRAM only: no other cell has a multiported model
	}
	if r.IntN(8) == 0 {
		tag := tech.RAMType(r.IntN(tech.NumRAMTypes))
		s.TagRAM = &tag
	}
	return s
}
