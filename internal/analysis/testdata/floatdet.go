// Fixture for the floatdet analyzer.
package fixture

import (
	"fmt"
	"math"
	"sort"
)

// mapAccumulation: summing floats in map order is nondeterministic.
func mapAccumulation(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want "float accumulation in map iteration order"
	}
	return sum
}

func mapAccumulationPlain(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want "float accumulation in map iteration order"
	}
	return total
}

func mapProduct(m map[int]float64) float64 {
	p := 1.0
	for _, v := range m {
		p *= v // want "float accumulation in map iteration order"
	}
	return p
}

// Accumulating into a loop-local is fine: the value dies each
// iteration, so order cannot leak out through it.
func mapLocalOnly(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		local := 0.0
		for _, v := range vs {
			local += v
		}
		if local > 1 {
			n++ // int accumulation is exact and order-independent
		}
	}
	return n
}

// The sanctioned pattern: collect keys, sort, then iterate.
func mapSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

func mapAppend(m map[string]float64, out []float64) []float64 {
	for _, v := range m {
		out = append(out, v) // want "appending floats in map iteration order"
	}
	return out
}

func mapFormat(m map[string]float64) {
	for k, v := range m {
		fmt.Printf("%s=%g\n", k, v) // want "formatting floats in map iteration order"
	}
}

// A reason in a comment is no exception: the finding stands.
func mapFormatSuppressed(m map[string]float64) {
	for k, v := range m {
		//lint:ignore floatdet debug dump, never parsed or diffed
		fmt.Printf("%s=%g\n", k, v) // want "formatting floats in map iteration order"
	}
}

func fma(a, b, c float64) float64 {
	return math.FMA(a, b, c) // want "math.FMA rounds once"
}

func exactEquality(a, b, c float64) bool {
	return a+b == c // want "exact == on a computed float"
}

func exactInequality(a, b, c float64) bool {
	return c != a*b // want "exact != on a computed float"
}

// Comparing stored values is the deterministic tie-break idiom the
// solver uses; it must not be flagged.
func storedComparison(xs []float64, i, j int) bool {
	return xs[i] == xs[j]
}

// Constant-folded arithmetic is exact.
func constantComparison(x float64) bool {
	return x == 2*math.Pi
}
