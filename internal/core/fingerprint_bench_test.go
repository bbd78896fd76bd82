package core

import (
	"testing"

	"cactid/internal/tech"
)

// BenchmarkFingerprint measures one Fingerprint call over a 64-spec
// SRAM cache grid (4 capacities x 4 associativities x 2 block sizes x
// 2 access modes): the per-point cost every cache lookup pays first.
// The grid leg keeps every spec's cuts, slack and weights at their
// defaults, as a grid does; the alternating leg gives every other spec
// other weights, so no call finds its float fields spelled by the
// call before. It sits in its own file and calls only exported API, so
// the file can be copied unchanged into another revision to compare
// the two.
func BenchmarkFingerprint(b *testing.B) {
	var specs []Spec
	for _, capacity := range []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, block := range []int{32, 64} {
				for _, mode := range []AccessMode{Normal, Sequential} {
					specs = append(specs, Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
						MaxPipelineStages: 6, CapacityBytes: capacity, Associativity: assoc,
						BlockBytes: block, Mode: mode})
				}
			}
		}
	}
	alternating := make([]Spec, len(specs))
	for i, s := range specs {
		if i%2 == 1 {
			s.Weights = &Weights{DynamicEnergy: 2, LeakagePower: 1, RandomCycle: 1, InterleaveCycle: 0.5}
		}
		alternating[i] = s
	}
	for _, leg := range []struct {
		name  string
		specs []Spec
	}{{"grid", specs}, {"alternating", alternating}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := leg.specs[i%len(leg.specs)].Fingerprint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
