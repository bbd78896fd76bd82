package array

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"cactid/internal/tech"
)

// fastestBank returns the bank with the least access time of spec's
// full enumeration (organization order is irrelevant here: only its
// area and access time feed the limits).
func fastestBank(t *testing.T, spec Spec) *Bank {
	t.Helper()
	banks, _, err := EnumerateContext(context.Background(), spec, 1)
	if err != nil || len(banks) == 0 {
		t.Fatalf("tag spec %+v: %d banks, %v", spec, len(banks), err)
	}
	best := banks[0]
	for _, b := range banks[1:] {
		if b.AccessTime < best.AccessTime {
			best = b
		}
	}
	return best
}

// sharedWalk is what one solve reads from a data-array prescan: the
// exact minimum access time within its stage-1 window, then the
// bounded enumeration under the limits a sequential-mode cache with
// this tag bank and bank count derives (core's boundedCandidates).
type sharedWalk struct {
	accMin   float64
	okAcc    bool
	banks    []*Bank
	counters Counters
}

func walkShared(pre *Prescanned, aMin float64, tag *Bank, nb float64, workers int) (sharedWalk, error) {
	var w sharedWalk
	window := nb * (aMin + tag.Area) * 1.4
	lim := Limits{MaxAreaLB: window / nb * (1 + 1e-9), MaxAccLB: math.Inf(1), AreaGuard: aMin}
	if w.accMin, w.okAcc = pre.MinAccessWithin(nb, tag.Area, window); w.okAcc {
		lim.MaxAccLB = ((tag.AccessTime+w.accMin)*1.1 - tag.AccessTime) * (1 + 1e-9)
	}
	var err error
	w.banks, w.counters, err = pre.Enumerate(context.Background(), workers, lim)
	return w, err
}

// TestSharedPrescanConcurrentWalks: four goroutines drive one
// Prescanned at once through MinAccessWithin and Enumerate, as the
// points of a sweep that share a data array do, each with its own
// limits taken from a real tag bank and bank count. Every walk and
// every enumeration must equal, value for value, the same calls on a
// private prescan of the spec. Two enumerations that shared one
// per-slot result index would overwrite each other's banks. `make
// stress` runs it under the race detector ten times.
func TestSharedPrescanConcurrentWalks(t *testing.T) {
	tech45 := tech.New(tech.Node45)
	data := []Spec{
		specSRAM(1<<20, 512, 1),
		specSRAM(512<<10, 512, 8),
		{Tech: tech45, RAM: tech.COMMDRAM, CapacityBytes: 4 << 20, OutputBits: 512, AssocReadout: 1, PageBits: 8192},
	}
	tags := []*Bank{
		fastestBank(t, specSRAM(2048*8*26/8, 8*26, 1)),
		fastestBank(t, specSRAM(512*4*25/8, 4*25, 1)),
		fastestBank(t, Spec{Tech: tech45, RAM: tech.COMMDRAM, CapacityBytes: 65536 * 8 * 24 / 8, OutputBits: 8 * 24, AssocReadout: 1}),
		fastestBank(t, specSRAM(1024, 4*27, 1)),
	}
	for di, ds := range data {
		want := make([]sharedWalk, len(tags))
		for g, tag := range tags {
			pre, err := Prescan(ds)
			if err != nil {
				t.Fatal(err)
			}
			aMin, ok := pre.MinArea()
			if !ok {
				t.Fatalf("data spec %d: no feasible point", di)
			}
			if want[g], err = walkShared(pre, aMin, tag, float64(1+g), 1); err != nil {
				t.Fatal(err)
			}
			pre.Release()
		}

		shared, err := Prescan(ds)
		if err != nil {
			t.Fatal(err)
		}
		aMin, _ := shared.MinArea()
		var wg sync.WaitGroup
		errs := make(chan error, len(tags))
		for g, tag := range tags {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					got, err := walkShared(shared, aMin, tag, float64(1+g), 2)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[g]) {
						errs <- fmt.Errorf("data spec %d, tag %d, round %d: shared walk (%d banks, %+v) differs from the private one (%d banks, %+v)",
							di, g, round, len(got.banks), got.counters, len(want[g].banks), want[g].counters)
						return
					}
				}
			}()
		}
		wg.Wait()
		shared.Release()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
