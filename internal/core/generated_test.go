package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cactid/internal/core"
	"cactid/internal/spectest"
	"cactid/internal/tech"
)

// TestBoundedMatchesExhaustiveGenerated extends
// TestBoundedFilterOutputIdentical from its hand-picked specs to
// generated boundable ones over every provider: wherever the bounded
// path applies, its filtered list equals the filtered exhaustive list,
// value for value and in order, OptimizeContext's winner pick returns
// that list's first solution, and its counters keep the accounting
// invariant; where it falls back, the exhaustive path must agree that
// the spec has no solution or handle it alone. Where no candidate
// survives the cuts, OptimizeContext answers ErrNoSolution.
func TestBoundedMatchesExhaustiveGenerated(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(17, 6))
	const n = 400
	applied, empty := 0, 0
	for i := 0; i < n; {
		spec := spectest.Spec(r)
		if !boundable(spec) {
			continue
		}
		i++
		var st core.SolveStats
		sols, ok, err := core.ExploreBounded(ctx, spec, &core.Options{Stats: &st})
		all, errU := core.ExploreContext(ctx, spec, nil)
		if err != nil {
			if errU == nil {
				t.Fatalf("spec %d %+v: bounded explore failed (%v) where the exhaustive one solves", i, spec, err)
			}
			continue
		}
		if !ok {
			continue
		}
		if errU != nil {
			t.Fatalf("spec %d %+v: exhaustive explore: %v", i, spec, errU)
		}
		applied++
		fu := core.Filter(spec, all)
		if fb := core.Filter(spec, sols); !reflect.DeepEqual(fb, fu) {
			t.Fatalf("spec %d %+v: filtered %d bounded solutions differ from %d exhaustive ones",
				i, spec, len(fb), len(fu))
		}
		best, err := core.OptimizeContext(ctx, spec, nil)
		if len(fu) == 0 {
			empty++
			if !errors.Is(err, core.ErrNoSolution) {
				t.Fatalf("spec %d %+v: no exhaustive survivor, but OptimizeContext returns %v", i, spec, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("spec %d %+v: OptimizeContext: %v (%d exhaustive survivors)", i, spec, err, len(fu))
		}
		if !reflect.DeepEqual(best, fu[0]) {
			t.Fatalf("spec %d %+v: OptimizeContext's winner differs from Filter's first solution", i, spec)
		}
		if total := st.Total(); total.Considered != total.PrunedTotal()+total.Built+total.BuildErrors {
			t.Fatalf("spec %d %+v: accounting invariant broken: %+v", i, spec, total)
		}
	}
	t.Logf("bounded path applied to %d of %d specs, %d of them with no survivor", applied, n, empty)
	if applied < n*3/4 {
		t.Fatalf("bounded path applied to only %d of %d generated specs", applied, n)
	}
}

// referenceHashInput is the fmt formula Fingerprint hashed before it
// built its input with strconv; the hash input must reproduce it byte
// for byte, or every persisted store key would change.
func referenceHashInput(c core.Spec) string {
	var h strings.Builder
	fmt.Fprintf(&h, "node=%d|ram=%d|cap=%d|blk=%d|assoc=%d|banks=%d|",
		int(c.Node), int(c.RAM), c.CapacityBytes, c.BlockBytes, c.Associativity, c.Banks)
	fmt.Fprintf(&h, "cache=%t|mode=%d|", c.IsCache, int(c.Mode))
	tag := -1
	if c.TagRAM != nil {
		tag = int(*c.TagRAM)
	}
	fmt.Fprintf(&h, "tag=%d|page=%d|pipe=%d|", tag, c.PageBits, c.MaxPipelineStages)
	fmt.Fprintf(&h, "area=%.17g|acc=%.17g|slack=%.17g|", c.MaxAreaConstraint, c.MaxAcctimeConstraint, c.MaxRepeaterSlack)
	fmt.Fprintf(&h, "w=%.17g,%.17g,%.17g,%.17g|", c.Weights.DynamicEnergy, c.Weights.LeakagePower,
		c.Weights.RandomCycle, c.Weights.InterleaveCycle)
	fmt.Fprintf(&h, "sleep=%t|ports=%d|ecc=%t|route=%t|pa=%d",
		c.SleepTransistors, c.Ports, c.ECC, c.IncludeBankRouting, c.PhysicalAddressBits)
	if c.Technology != "" {
		fmt.Fprintf(&h, "|tech=%s", c.Technology)
	}
	return h.String()
}

// checkFingerprint fails t unless spec's hash input equals the fmt
// formula's and its fingerprint is that input's truncated SHA-256. It
// returns the canonical spec, or false for an invalid one.
func checkFingerprint(t *testing.T, s core.Spec) (core.Spec, bool) {
	t.Helper()
	c, err := s.Canonical()
	if err != nil {
		return c, false
	}
	want := referenceHashInput(c)
	if got := string(core.AppendHashInput(&c, nil)); got != want {
		t.Errorf("spec %+v:\nhash input %q\nfmt formula %q", s, got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if fp, err := s.Fingerprint(); err != nil || fp != hex.EncodeToString(sum[:16]) {
		t.Errorf("spec %+v: fingerprint %q (%v), want %x", s, fp, err, sum[:16])
	}
	return c, true
}

// withFloats returns s with its cuts, slack and weights set from
// tuple: area, access time, slack and the four weights.
func withFloats(s core.Spec, tuple [7]float64) core.Spec {
	s.MaxAreaConstraint, s.MaxAcctimeConstraint, s.MaxRepeaterSlack = tuple[0], tuple[1], tuple[2]
	s.Weights = &core.Weights{DynamicEnergy: tuple[3], LeakagePower: tuple[4],
		RandomCycle: tuple[5], InterleaveCycle: tuple[6]}
	return s
}

// TestFingerprintMatchesFmtReference is a differential test of the
// fmt-free fingerprint over generated specs of every technology
// provider: the hash input equals the fmt formula's, and the
// fingerprint is that input's truncated SHA-256. Invalid draws are
// skipped. The draws are fingerprinted again with their floats set to
// two tuples in turn, two draws per tuple, so the memoized float
// segment is hit and missed alternately.
func TestFingerprintMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	perTech := map[string]int{}
	var valid []core.Spec
	for i := 0; i < 4000; i++ {
		s := spectest.Spec(rng)
		c, ok := checkFingerprint(t, s)
		if !ok {
			continue
		}
		if t.Failed() {
			t.FailNow()
		}
		perTech[c.Technology]++
		valid = append(valid, s)
	}
	for _, name := range tech.Providers() {
		if name == tech.DefaultTech {
			name = "" // canonical spelling of the default family
		}
		if perTech[name] < 50 {
			t.Errorf("provider %q: only %d valid generated specs", name, perTech[name])
		}
	}
	tuples := [2][7]float64{{0.4, 0.1, 0, 1, 1, 1, 1}, {0.25, 0.5, 0.05, 2, 0.5, 1e-3, 3}}
	for i, s := range valid {
		if _, ok := checkFingerprint(t, withFloats(s, tuples[i/2%2])); !ok {
			t.Fatalf("spec %+v is invalid with float tuple %v", s, tuples[i/2%2])
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestFingerprintMemoConcurrent fingerprints generated specs on eight
// goroutines, each with its own float tuple, so the memoized float
// segment is replaced under concurrent readers; every fingerprint must
// match the fmt formula's. make stress runs it under the race
// detector.
func TestFingerprintMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var specs []core.Spec
	for len(specs) < 200 {
		s := spectest.Spec(rng)
		if _, err := s.Canonical(); err == nil {
			specs = append(specs, s)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tuple := [7]float64{0.4, 0.1, float64(g) / 8, 1, 1, 1, float64(g + 1)}
			for _, s := range specs {
				if _, ok := checkFingerprint(t, withFloats(s, tuple)); !ok {
					t.Errorf("spec %+v is invalid with float tuple %v", s, tuple)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFingerprintSignedZeroSlack: the repeater slack has no default,
// so a -0 slack survives normalization, and %.17g spells it "-0". Specs
// with +0 and -0 slack must fingerprint differently, as the fmt
// formula does, whichever one the memoized float segment holds.
func TestFingerprintSignedZeroSlack(t *testing.T) {
	plus := core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true, CapacityBytes: 64 << 10,
		BlockBytes: 64, Associativity: 4}
	minus := plus
	minus.MaxRepeaterSlack = math.Copysign(0, -1)
	var fps []string
	for _, s := range []core.Spec{plus, minus, minus, plus, plus, minus} {
		if _, ok := checkFingerprint(t, s); !ok {
			t.Fatalf("spec %+v is invalid", s)
		}
		fp, _ := s.Fingerprint()
		fps = append(fps, fp)
	}
	if fps[0] == fps[1] {
		t.Fatalf("+0 and -0 slack share fingerprint %s", fps[0])
	}
	if fps[0] != fps[3] || fps[0] != fps[4] || fps[1] != fps[2] || fps[1] != fps[5] {
		t.Fatalf("fingerprints change with the memo's state: %v", fps)
	}
}

// TestWeightPropertiesGenerated checks two properties of the objective
// weights on every solvable spec of 300 generated ones. The area and
// access-time cuts and the objective's normalizers do not read the
// weights, so only the weighted sum over one candidate set moves:
//   - raising any one weight 4x never raises that metric of the chosen
//     design;
//   - weights {2,2,2,2} choose the same data and tag organizations as
//     the default {1,1,1,1}.
//
// A draw's own weights are the base when they are finite and
// non-negative, the properties' premise; otherwise the default is.
func TestWeightPropertiesGenerated(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(29, 4))
	metrics := []struct {
		name   string
		weight func(*core.Weights) *float64
		value  func(*core.Solution) float64
	}{
		{"dynamic energy", func(w *core.Weights) *float64 { return &w.DynamicEnergy }, func(s *core.Solution) float64 { return s.EReadPerAccess }},
		{"leakage power", func(w *core.Weights) *float64 { return &w.LeakagePower }, func(s *core.Solution) float64 { return s.LeakagePower }},
		{"random cycle", func(w *core.Weights) *float64 { return &w.RandomCycle }, func(s *core.Solution) float64 { return s.RandomCycle }},
		{"interleave cycle", func(w *core.Weights) *float64 { return &w.InterleaveCycle }, func(s *core.Solution) float64 { return s.InterleaveCycle }},
	}
	orgs := func(s *core.Solution) string {
		if s.Tag == nil {
			return s.Data.Org.String()
		}
		return s.Data.Org.String() + " / tag " + s.Tag.Org.String()
	}
	solvable := 0
	for i := 0; i < 300; i++ {
		spec := spectest.Spec(r)
		base := core.DefaultWeights
		if w := spec.Weights; w != nil {
			ok := true
			for _, m := range metrics {
				v := *m.weight(w)
				ok = ok && v >= 0 && !math.IsInf(v, 0)
			}
			if ok {
				base = *w
			}
		}
		spec.Weights = &base
		best, err := core.OptimizeContext(ctx, spec, nil)
		if err != nil {
			continue
		}
		solvable++
		for _, m := range metrics {
			raised := base
			*m.weight(&raised) *= 4
			s := spec
			s.Weights = &raised
			sol, err := core.OptimizeContext(ctx, s, nil)
			if err != nil {
				t.Fatalf("spec %d %+v: weights %+v solve, %+v do not: %v", i, spec, base, raised, err)
			}
			if m.value(sol) > m.value(best) {
				t.Errorf("spec %d %+v: raising the %s weight 4x (%+v) raised it from %g to %g (%s -> %s)",
					i, spec, m.name, raised, m.value(best), m.value(sol), orgs(best), orgs(sol))
			}
		}
		def, double := spec, spec
		def.Weights, double.Weights = nil, &core.Weights{DynamicEnergy: 2, LeakagePower: 2, RandomCycle: 2, InterleaveCycle: 2}
		a, errA := core.OptimizeContext(ctx, def, nil)
		b, errB := core.OptimizeContext(ctx, double, nil)
		if errA != nil || errB != nil {
			t.Fatalf("spec %d %+v: default weights (%v) or doubled ones (%v) do not solve", i, spec, errA, errB)
		}
		if a.Data.Org != b.Data.Org || (a.Tag == nil) != (b.Tag == nil) || a.Tag != nil && a.Tag.Org != b.Tag.Org {
			t.Errorf("spec %d %+v: weights {2,2,2,2} choose %s, the default %s", i, spec, orgs(b), orgs(a))
		}
	}
	t.Logf("%d of 300 generated specs solvable", solvable)
	if solvable < 150 {
		t.Fatalf("only %d of 300 generated specs solve", solvable)
	}
}
