// Package explore mirrors the real Pareto filter: Frontier is a cone
// root (every served frontier, single-node or distributed, comes from
// it).
package explore

import "math/rand"

// Frontier is the fixture stand-in for the frontier filter, a root by
// name.
func Frontier(points []float64) []float64 {
	kept := points[:0]
	for _, p := range points {
		if p > rand.Float64() { // want "math/rand use in fixture/detpure/explore.Frontier"
			kept = append(kept, p)
		}
	}
	return kept
}
