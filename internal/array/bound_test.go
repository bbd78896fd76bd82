package array

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cactid/internal/tech"
)

func boundSpecs() map[string]Spec {
	// The provider-backed specs prove the bound ladder stays admissible
	// for the current-mode (NVM) and gain-cell bitline models, not just
	// the two ITRS kinds the ladder was derived against.
	techOf := func(name string, n tech.Node) *tech.Technology {
		t, err := tech.TechnologyOf(name, n)
		if err != nil {
			panic(err)
		}
		return t
	}
	return map[string]Spec{
		"sram": specSRAM(1<<20, 512, 1),
		"comm-dram": {Tech: tech.New(tech.Node45), RAM: tech.COMMDRAM,
			CapacityBytes: 4 << 20, OutputBits: 512, AssocReadout: 1},
		"stt-ram": {Tech: techOf("stt-ram", tech.Node32), RAM: tech.STTRAM,
			CapacityBytes: 2 << 20, OutputBits: 512, AssocReadout: 1},
		"pcm": {Tech: techOf("pcm", tech.Node45), RAM: tech.PCM,
			CapacityBytes: 2 << 20, OutputBits: 512, AssocReadout: 1},
		"gain-cell": {Tech: techOf("gain-cell", tech.Node32), RAM: tech.GAINCELL,
			CapacityBytes: 2 << 20, OutputBits: 512, AssocReadout: 1},
	}
}

// Every bounding tier must be admissible — at or below the fully
// modeled bank metrics — or the bounded enumeration could discard a
// filter survivor. The final tier must not merely bound but reproduce
// the built metrics bitwise: that equality is what lets the solver
// derive its thresholds from walk minima (DESIGN.md §1.2e).
func TestBoundTiersAdmissible(t *testing.T) {
	for name, spec := range boundSpecs() {
		pre, err := Prescan(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enum, _, err := pre.Enumerate(context.Background(), NoLimits())
		defer enum.Release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		banks := enum.Banks
		if len(banks) == 0 {
			t.Fatalf("%s: no banks", name)
		}
		bc := pre.bc
		for _, b := range banks {
			o := b.Org
			sh, err := bc.mats.sharedFor(o.Rows, o.Cols)
			if err != nil {
				t.Fatalf("%s %v: %v", name, o, err)
			}
			parts := bc.mats.muxPartsFor(sh, o.Cols, o.Mux)
			tiers := []struct {
				tier      string
				area, acc float64
			}{}
			add := func(tier string, area, acc float64) {
				tiers = append(tiers, struct {
					tier      string
					area, acc float64
				}{tier, area, acc})
			}
			aC, accC := bc.shardBounds(o.Rows, o.Cols)
			add("shard-cheap", aC, accC)
			aT, accT := bc.shardBoundsTight(o.Rows, o.Cols)
			add("shard-tight", aT, accT)
			aL, accL := bc.pointBoundsLite(bc.mats.shardLBFor(o.Rows, o.Cols), o)
			add("point-lite", aL, accL)
			aP, accP := bc.pointBounds(sh, parts, o)
			add("point-amgm", aP, accP)
			for _, tr := range tiers {
				if tr.area > b.Area || tr.acc > b.AccessTime {
					t.Errorf("%s %v: %s bound (%g, %g) exceeds built (%g, %g)",
						name, o, tr.tier, tr.area, tr.acc, b.Area, b.AccessTime)
				}
			}
			// The walks order shards by the cheap bound and skip on the
			// tight bound; that is only sound when cheap <= tight.
			if aC > aT || accC > accT {
				t.Errorf("%s %v: cheap shard bound (%g, %g) above tight (%g, %g)",
					name, o, aC, accC, aT, accT)
			}
			if aE, accE := bc.pointExact(sh, parts, o); aE != b.Area || accE != b.AccessTime {
				t.Errorf("%s %v: pointExact (%g, %g) not bitwise equal to built (%g, %g)",
					name, o, aE, accE, b.Area, b.AccessTime)
			}
		}
	}
}

// The exact-minimum walks must return the same floats a full
// enumeration minimizes to — the solver turns them directly into
// pruning thresholds.
func TestWalkMinimaMatchEnumeration(t *testing.T) {
	f := func(capU, outU uint8) bool {
		spec := specSRAM(int64(1)<<(17+capU%6), 128<<(outU%3), 1)
		pre, err := Prescan(spec)
		if err != nil || len(pre.Points) == 0 {
			return true // infeasible specs have nothing to compare
		}
		enum, _, err := pre.Enumerate(context.Background(), NoLimits())
		defer enum.Release()
		if err != nil {
			return false
		}
		banks := enum.Banks
		aMin, okA := pre.MinArea()
		accMin, okAcc := pre.MinAccessWithin(1, 0, math.Inf(1))
		if len(banks) == 0 {
			return !okA && !okAcc
		}
		wantArea, wantAcc := math.Inf(1), math.Inf(1)
		for _, b := range banks {
			wantArea = math.Min(wantArea, b.Area)
			wantAcc = math.Min(wantAcc, b.AccessTime)
		}
		return okA && okAcc && aMin == wantArea && accMin == wantAcc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// A bounded enumeration must keep every bank whose exact metrics pass
// the limits (admissibility guarantees the converse direction), keep
// them byte-identical, and keep the counter accounting invariant with
// the bound buckets engaged.
func TestBoundedEnumerateEquivalence(t *testing.T) {
	for name, spec := range boundSpecs() {
		pre, err := Prescan(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ctx := context.Background()
		allEnum, _, err := pre.Enumerate(ctx, NoLimits())
		defer allEnum.Release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all := allEnum.Banks
		minArea, minAcc := math.Inf(1), math.Inf(1)
		for _, b := range all {
			minArea = math.Min(minArea, b.Area)
			minAcc = math.Min(minAcc, b.AccessTime)
		}
		lim := Limits{MaxAreaLB: minArea * 1.4, MaxAccLB: minAcc * 1.1, AreaGuard: minArea}
		boundedEnum, c, err := pre.Enumerate(ctx, lim)
		defer boundedEnum.Release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bounded := boundedEnum.Banks
		if c.Considered != c.PrunedTotal()+c.Built+c.BuildErrors {
			t.Fatalf("%s: counter accounting broken: %+v (pruned total %d)", name, c, c.PrunedTotal())
		}
		if c.PrunedBoundShard+c.PrunedBoundPoint == 0 {
			t.Fatalf("%s: bound pruning not engaged: %+v", name, c)
		}
		if int64(len(bounded)) != c.Built {
			t.Fatalf("%s: built %d banks but counter says %d", name, len(bounded), c.Built)
		}
		byOrg := make(map[Org]*Bank, len(bounded))
		for _, b := range bounded {
			byOrg[b.Org] = b
		}
		for _, b := range all {
			keep := b.Area <= lim.MaxAreaLB && (b.AccessTime <= lim.MaxAccLB || b.Area <= lim.AreaGuard)
			got, ok := byOrg[b.Org]
			if keep && !ok {
				t.Errorf("%s: bank %v passes the limits but was pruned", name, b.Org)
				continue
			}
			if ok && !reflect.DeepEqual(got, b) {
				t.Errorf("%s: bank %v differs between bounded and unbounded runs", name, b.Org)
			}
		}
		for o := range byOrg {
			found := false
			for _, b := range all {
				if b.Org == o {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: bounded run built %v, absent from the unbounded run", name, o)
			}
		}
	}
}
