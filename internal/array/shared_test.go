package array

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cactid/internal/tech"
)

// fastestBank returns the bank with the least access time of spec's
// full enumeration (organization order is irrelevant here: only its
// area and access time feed the limits).
func fastestBank(t *testing.T, spec Spec) *Bank {
	t.Helper()
	banks, _, err := EnumerateContext(context.Background(), spec)
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

func walkShared(pre *Prescanned, aMin float64, tag *Bank, nb float64) (sharedWalk, error) {
	var w sharedWalk
	window := nb * (aMin + tag.Area) * 1.4
	lim := Limits{MaxAreaLB: window / nb * (1 + 1e-9), MaxAccLB: math.Inf(1), AreaGuard: aMin}
	if w.accMin, w.okAcc = pre.MinAccessWithin(nb, tag.Area, window); w.okAcc {
		lim.MaxAccLB = ((tag.AccessTime+w.accMin)*1.1 - tag.AccessTime) * (1 + 1e-9)
	}
	enum, counters, err := pre.Enumerate(context.Background(), lim)
	defer enum.Release()
	w.banks, w.counters = copyOut(enum.Banks), counters
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
			if want[g], err = walkShared(pre, aMin, tag, float64(1+g)); err != nil {
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
					got, err := walkShared(shared, aMin, tag, float64(1+g))
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

// cancelAfter is a context whose Done channel closes at its k-th poll,
// so an enumeration under it stops partway through the grid.
type cancelAfter struct {
	context.Context
	k     int64
	polls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newCancelAfter(k int64) *cancelAfter {
	return &cancelAfter{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls.Add(1) >= c.k {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestEnumerateReleaseAfterCancel: four goroutines run bounded
// enumerations of one shared prescan through the buffer pool, and every
// third is cancelled at a varying poll of its slot loop. A completed
// enumeration must equal one of a private prescan bit for bit; a
// cancelled one must return its context's error and an empty
// Enumerated; every handle is released twice. A buffer released twice,
// or left in use by a cancelled enumeration, would reach two
// enumerations at once and corrupt one of them. `make stress` runs it
// under the race detector ten times.
func TestEnumerateReleaseAfterCancel(t *testing.T) {
	spec := specSRAM(1<<20, 512, 1)
	shared, err := Prescan(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Release()
	aMin, ok := shared.MinArea()
	if !ok {
		t.Fatal("no feasible point")
	}
	accMin, _ := shared.MinAccessWithin(1, 0, aMin*1.4)
	lims := []Limits{
		{MaxAreaLB: aMin * 1.4, MaxAccLB: accMin * 1.1, AreaGuard: aMin},
		{MaxAreaLB: aMin * 4, MaxAccLB: accMin * 2, AreaGuard: aMin},
	}
	want := make([][]*Bank, len(lims))
	wantC := make([]Counters, len(lims))
	for i, lim := range lims {
		pre, err := Prescan(spec)
		if err != nil {
			t.Fatal(err)
		}
		enum, c, err := pre.Enumerate(context.Background(), lim)
		if err != nil || len(enum.Banks) == 0 {
			t.Fatalf("limits %d: %d banks, %v", i, len(enum.Banks), err)
		}
		want[i], wantC[i] = copyOut(enum.Banks), c
		enum.Release()
		pre.Release()
	}

	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				li := (g + i) % len(lims)
				var ctx context.Context = context.Background()
				if i%3 == 0 {
					ctx = newCancelAfter(int64(1 + (i/3+g*7)%(gridSlots-1)))
				}
				enum, c, err := shared.Enumerate(ctx, lims[li])
				switch {
				case i%3 == 0:
					if err == nil || err != ctx.Err() || enum.Banks != nil || enum.res != nil {
						errs <- fmt.Errorf("goroutine %d, round %d: cancelled enumeration returned %v with %d banks", g, i, err, len(enum.Banks))
						return
					}
				case err != nil:
					errs <- fmt.Errorf("goroutine %d, round %d: %v", g, i, err)
					return
				default:
					if d := banksDiff(enum.Banks, want[li]); d != "" || c != wantC[li] {
						errs <- fmt.Errorf("goroutine %d, round %d: enumeration differs from the private one: %s (counters %+v, want %+v)", g, i, d, c, wantC[li])
						return
					}
				}
				enum.Release()
				if enum.Banks != nil || enum.res != nil {
					errs <- fmt.Errorf("goroutine %d, round %d: Release left the handle set", g, i)
					return
				}
				enum.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
