package core_test

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/spectest"
)

// TestSubSolvesMatchOptimize: a table solves every point of generated
// sweeps exactly as OptimizeContext does, value for value down to the
// banks, mats and technology behind the solution, and reports what it
// shared. The sweeps cross generated boundable bases with
// associativities, the three access modes and bank counts, so their
// points share tag banks (the tag ignores the mode) and data prescans
// (a sequential cache's data array ignores associativity). Solved in
// order on one goroutine, a point's tag or data is shared exactly when
// an earlier point of the sweep had its key; a solved point with a
// shared tag ran no tag enumeration, so its tag counters stay zero.
func TestSubSolvesMatchOptimize(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(23, 5))
	tagShared, dataShared := 0, 0
	for g := 0; g < 12; {
		base := spectest.Spec(r)
		if !boundable(base) {
			continue
		}
		bankCap := base.CapacityBytes / int64(max(base.Banks, 1))
		var specs []core.Spec
		for _, assoc := range []int{1, 2, 4} {
			for _, banks := range []int{base.Banks, 2 * max(base.Banks, 1)} {
				for _, mode := range []core.AccessMode{core.Normal, core.Sequential, core.Fast} {
					s := base
					s.Associativity, s.Banks, s.Mode = assoc, banks, mode
					s.CapacityBytes = bankCap * int64(max(banks, 1))
					specs = append(specs, s)
				}
			}
		}
		tab := core.NewSubSolves(specs)
		seenData, seenTag := map[array.Spec]bool{}, map[array.Spec]bool{}
		for i, s := range specs {
			var st core.SolveStats
			got, err := tab.Optimize(ctx, i, &core.Options{Stats: &st})
			tab.Done(i)
			want, wantErr := core.OptimizeContext(ctx, s, nil)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("sweep %d point %d %+v: error %v, per point %v", g, i, s, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep %d point %d %+v: solution differs from the per-point one", g, i, s)
			}
			n := s
			if core.Normalize(&n) != nil || !core.Boundable(&n) {
				continue
			}
			ds, ts := core.ArrayKeys(n)
			if st.DataShared != seenData[ds] {
				t.Fatalf("sweep %d point %d: DataShared %v, key seen before %v", g, i, st.DataShared, seenData[ds])
			}
			if n.IsCache && st.TagShared != seenTag[ts] {
				t.Fatalf("sweep %d point %d: TagShared %v, key seen before %v", g, i, st.TagShared, seenTag[ts])
			}
			if st.TagShared && err == nil && st.Tag != (array.Counters{}) {
				t.Fatalf("sweep %d point %d: a shared tag reports enumeration counters %+v", g, i, st.Tag)
			}
			seenData[ds] = true
			if n.IsCache {
				seenTag[ts] = true
			}
			if st.TagShared {
				tagShared++
			}
			if st.DataShared {
				dataShared++
			}
		}
		tab.Close()
		g++
	}
	t.Logf("%d tag banks and %d data prescans shared", tagShared, dataShared)
	if tagShared == 0 || dataShared == 0 {
		t.Fatal("the generated sweeps shared nothing")
	}
}
