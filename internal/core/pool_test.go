package core_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"cactid/internal/core"
	"cactid/internal/spectest"
	"cactid/internal/tech"
)

// boundable reports whether s is a valid spec the bounded explore
// applies to: the predicate that filters generated specs for the
// bounded path's tests.
func boundable(s core.Spec) bool {
	return core.Normalize(&s) == nil && core.Boundable(&s)
}

// pooledSpecs draws, for every tech.Providers() entry, two boundable
// specs (the bounded path: pooled prescans and the winner pick) and a
// routed four-bank spec (the exhaustive fallback: pooled
// EnumerateContext contexts).
func pooledSpecs() []core.Spec {
	r := rand.New(rand.NewPCG(19, 3))
	var specs []core.Spec
	for _, p := range tech.Providers() {
		for found := 0; found < 2; {
			s := spectest.Spec(r)
			c := s
			if core.Normalize(&c) != nil || !core.Boundable(&c) || c.Technology != p && !(p == tech.DefaultTech && c.Technology == "") {
				continue
			}
			specs = append(specs, s)
			found++
		}
		base := specs[len(specs)-1]
		routed := base
		routed.Banks, routed.IncludeBankRouting = 4, true
		routed.CapacityBytes = 4 * (base.CapacityBytes / int64(max(base.Banks, 1)))
		specs = append(specs, routed)
	}
	return specs
}

// TestConcurrentSolvesMatchSerial solves generated specs of every
// provider on several goroutines at once, so build contexts and result
// buffers pass between solves through the pools while others are in use.
// Every result must equal, value for value, the serial reference
// solved beforehand: a context that leaked one solve's scratch into
// another, or a winner that aliased released scratch, would differ. `make stress` runs it under
// the race detector ten times.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	specs := pooledSpecs()
	ctx := context.Background()
	type outcome struct {
		sol *core.Solution
		err error
	}
	want := make([]outcome, len(specs))
	solved := 0
	for i, s := range specs {
		sol, err := core.OptimizeContext(ctx, s, nil)
		want[i] = outcome{sol, err}
		if err == nil {
			solved++
		}
	}
	if solved < len(specs)/2 {
		t.Fatalf("only %d of %d generated specs solve", solved, len(specs))
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range specs {
				i := (k + g*len(specs)/goroutines) % len(specs)
				sol, err := core.OptimizeContext(ctx, specs[i], nil)
				if (err == nil) != (want[i].err == nil) || err != nil && err.Error() != want[i].err.Error() || !reflect.DeepEqual(sol, want[i].sol) {
					errs <- fmt.Errorf("spec %d %+v: concurrent solve (%v) differs from the serial one (%v)",
						i, specs[i], err, want[i].err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
