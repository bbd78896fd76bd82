// Package core mirrors the real solver package's entry-point names so
// the detpure root predicates (matched by package name) fire on it.
package core

import (
	"sort"
	"sync"
	"time"

	"fixture/detpure/impl"
)

// Explore is a cone root: byte-identity outputs start here.
func Explore() []string {
	now := time.Now() // want "time.Now in fixture/detpure/core.Explore"
	_ = now
	m := map[string]int{"a": 1, "b": 2}
	out := keysUnsorted(m)
	out = append(out, keysSorted(m)...)
	out = append(out, impl.Helper())
	out = gather(out)
	_ = stamp()
	return out
}

// keysUnsorted leaks map iteration order into its result slice.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append in map iteration order"
	}
	return out
}

// keysSorted is the collect-then-sort idiom — the fix the diagnostic
// recommends — and must stay clean.
func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// gather appends from goroutines: the scheduler decides the order.
func gather(in []string) []string {
	var out []string
	var wg sync.WaitGroup
	for range in {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, "x") // want "goroutine scheduling"
		}()
	}
	wg.Wait()
	return out
}

// stamp's wall-clock read carries a reason in a comment; the finding
// stands, because no comment is an exception.
func stamp() int64 {
	//lint:ignore detpure fixture: timestamp is job metadata, never result bytes
	return time.Now().UnixNano() // want "time.Now in fixture/detpure/core.stamp"
}

// unreached is outside the cone: its hazards are not findings.
func unreached() time.Time {
	return time.Now()
}
