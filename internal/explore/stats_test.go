package explore

import (
	"context"
	"reflect"
	"testing"
)

// TestStatsMergeSumsEveryField pins Merge to the full field set by
// reflection: a Stats field added without a matching Merge line would
// silently drop its counts in cluster aggregation.
func TestStatsMergeSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(2 * (i + 1)))
	}
	mv := reflect.ValueOf(a.Merge(b))
	for i := 0; i < mv.NumField(); i++ {
		if got, want := mv.Field(i).Int(), int64(3*(i+1)); got != want {
			t.Errorf("Merge dropped field %s: got %d, want %d",
				mv.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsMergeShardedConservation runs one sweep sharded across two
// engines and checks the merged counters conserve work: every point
// solved exactly once cluster-wide, none double-counted and none lost.
func TestStatsMergeShardedConservation(t *testing.T) {
	specs, _ := testGrid().Expand()
	_, s1 := countingSolver(0)
	_, s2 := countingSolver(0)
	e1 := New(Options{Workers: 2, Solver: s1})
	e2 := New(Options{Workers: 2, Solver: s2})

	cut := len(specs) / 3
	e1.Sweep(context.Background(), specs[:cut])
	e2.Sweep(context.Background(), specs[cut:])

	merged := e1.Stats().Merge(e2.Stats())
	if merged.Solves != int64(len(specs)) {
		t.Fatalf("merged Solves = %d, want %d", merged.Solves, len(specs))
	}
	if merged.CacheEntries != len(specs) {
		t.Fatalf("merged CacheEntries = %d, want %d", merged.CacheEntries, len(specs))
	}
	if merged.CacheHits != 0 {
		t.Fatalf("cold sharded sweep reported %d cache hits", merged.CacheHits)
	}

	// A single engine over the same specs does exactly the same total
	// work — sharding must not change the cluster-wide solve count.
	_, s3 := countingSolver(0)
	e3 := New(Options{Workers: 2, Solver: s3})
	e3.Sweep(context.Background(), specs)
	if solo := e3.Stats(); solo.Solves != merged.Solves || solo.CacheEntries != merged.CacheEntries {
		t.Fatalf("sharded merge %+v != single-engine %+v", merged, solo)
	}
}
