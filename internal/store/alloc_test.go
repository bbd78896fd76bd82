//go:build !race

// The race detector's instrumentation allocates on its own account,
// so the allocation count is checked only in normal builds.

package store

import (
	"context"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// TestLookupAllocs bounds what a tier-1 hit of a real cache solution
// allocates: the store read, the key and the rebuilt solution, with
// the record and its decoder kept on the stack. A decoder behind
// jsondec.Decode's callback, or a String that hands json.Unmarshal
// the record's own field, moves both to the heap: two more.
func TestLookupAllocs(t *testing.T) {
	const budget = 9
	ctx := context.Background()
	sol, err := core.Optimize(core.Spec{Node: tech.Node32, CapacityBytes: 1 << 20,
		BlockBytes: 64, Associativity: 8, IsCache: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sol.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tier := NewSolutions(s)
	tier.Save(ctx, fp, sol, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tier.Lookup(ctx, fp); !ok {
			t.Fatal("stored solution missed")
		}
	})
	t.Logf("%.0f allocations per Lookup", allocs)
	if allocs > budget {
		t.Errorf("%.0f allocations per Lookup, budget %d", allocs, budget)
	}
}
