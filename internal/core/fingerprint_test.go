package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cactid/internal/tech"
)

func TestFingerprintStableAcrossDefaults(t *testing.T) {
	// Each pair must fingerprint identically: the second spec spells
	// out a field the first leaves at its defaulted zero value. This
	// is the latent-inequality fix: Spec{} == comparison would call
	// these different.
	w := DefaultWeights
	sr := tech.SRAM
	cm := tech.COMMDRAM
	pairs := []struct {
		name string
		a, b Spec
	}{
		{"banks", sramCache(1<<20, 8, 0), sramCache(1<<20, 8, 1)},
		{"weights",
			sramCache(1<<20, 8, 1),
			func() Spec { s := sramCache(1<<20, 8, 1); s.Weights = &w; return s }()},
		{"constraints",
			sramCache(1<<20, 8, 1),
			func() Spec {
				s := sramCache(1<<20, 8, 1)
				s.MaxAreaConstraint, s.MaxAcctimeConstraint = 0.4, 0.1
				return s
			}()},
		{"node",
			Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64},
			Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}},
		{"ports",
			Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64},
			Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64, Ports: 1}},
		{"pa-bits",
			sramCache(1<<20, 8, 1),
			func() Spec { s := sramCache(1<<20, 8, 1); s.PhysicalAddressBits = 40; return s }()},
		{"assoc",
			Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64},
			Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64, Associativity: 1}},
		{"tag-ram-sram-cache",
			sramCache(1<<20, 8, 1),
			func() Spec { s := sramCache(1<<20, 8, 1); s.TagRAM = &sr; return s }()},
		{"tag-ram-dram-cache",
			Spec{Node: tech.Node32, RAM: tech.COMMDRAM, CapacityBytes: 96 << 20, BlockBytes: 64,
				Associativity: 12, Banks: 8, IsCache: true, Mode: Sequential},
			Spec{Node: tech.Node32, RAM: tech.COMMDRAM, CapacityBytes: 96 << 20, BlockBytes: 64,
				Associativity: 12, Banks: 8, IsCache: true, Mode: Sequential, TagRAM: &cm}},
		{"tag-ram-plain-memory",
			Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64},
			func() Spec {
				s := Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}
				s.TagRAM = &cm // no tag array exists: must not matter
				return s
			}()},
	}
	for _, p := range pairs {
		fa, err1 := p.a.Fingerprint()
		fb, err2 := p.b.Fingerprint()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", p.name, err1, err2)
		}
		if fa != fb {
			t.Errorf("%s: fingerprints differ: %s vs %s", p.name, fa, fb)
		}
	}
}

func TestFingerprintDistinguishesSolverInputs(t *testing.T) {
	base := sramCache(1<<20, 8, 1)
	mutants := map[string]func(*Spec){
		"capacity": func(s *Spec) { s.CapacityBytes *= 2 },
		"block":    func(s *Spec) { s.BlockBytes = 32 },
		"assoc":    func(s *Spec) { s.Associativity = 4 },
		"banks":    func(s *Spec) { s.Banks = 2 },
		"node":     func(s *Spec) { s.Node = tech.Node45 },
		"ram":      func(s *Spec) { s.RAM = tech.LPDRAM },
		"mode":     func(s *Spec) { s.Mode = Sequential },
		"cache":    func(s *Spec) { s.IsCache = false },
		"page":     func(s *Spec) { s.PageBits = 8192 },
		"pipe":     func(s *Spec) { s.MaxPipelineStages = 4 },
		"area":     func(s *Spec) { s.MaxAreaConstraint = 0.5 },
		"acctime":  func(s *Spec) { s.MaxAcctimeConstraint = 0.2 },
		"slack":    func(s *Spec) { s.MaxRepeaterSlack = 0.3 },
		"weights":  func(s *Spec) { s.Weights = &Weights{2, 1, 1, 1} },
		"sleep":    func(s *Spec) { s.SleepTransistors = true },
		"ports":    func(s *Spec) { s.Ports = 2 },
		"ecc":      func(s *Spec) { s.ECC = true },
		"routing":  func(s *Spec) { s.IncludeBankRouting = true },
		"pa":       func(s *Spec) { s.PhysicalAddressBits = 48 },
		"tagram":   func(s *Spec) { r := tech.LPDRAM; s.TagRAM = &r },
	}
	fp0, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range mutants {
		s := base
		mut(&s)
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fp0 {
			t.Errorf("%s: mutated spec fingerprints like the base", name)
		}
	}
}

func TestFingerprintDoesNotMutateSpec(t *testing.T) {
	s := Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}
	if _, err := s.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if s.Banks != 0 || s.Weights != nil || s.Node != 0 || s.TagRAM != nil {
		t.Errorf("Fingerprint mutated its receiver: %+v", s)
	}
}

func TestFingerprintRejectsInvalidSpecs(t *testing.T) {
	for i, bad := range []Spec{
		{},
		{RAM: tech.SRAM, CapacityBytes: -4, BlockBytes: 64},
		{RAM: tech.SRAM, CapacityBytes: 1000, BlockBytes: 64, Banks: 3},
	} {
		if _, err := bad.Fingerprint(); err == nil {
			t.Errorf("case %d: invalid spec fingerprinted without error", i)
		}
	}
	// Each cut, the repeater slack and each weight at NaN, +Inf and
	// -Inf, which no JSON carries: the error names the field.
	valid := Spec{RAM: tech.SRAM, CapacityBytes: 1 << 20, BlockBytes: 64}
	if _, err := valid.Fingerprint(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	names := [...]string{"MaxAreaConstraint", "MaxAcctimeConstraint", "MaxRepeaterSlack",
		"Weights.DynamicEnergy", "Weights.LeakagePower", "Weights.RandomCycle", "Weights.InterleaveCycle"}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for f, name := range names {
			s, w := valid, DefaultWeights
			s.Weights = &w
			*[...]*float64{&s.MaxAreaConstraint, &s.MaxAcctimeConstraint, &s.MaxRepeaterSlack,
				&w.DynamicEnergy, &w.LeakagePower, &w.RandomCycle, &w.InterleaveCycle}[f] = v
			if _, err := s.Fingerprint(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s %v: Fingerprint error %v, want one naming the field", name, v, err)
			}
		}
	}
}

func TestFingerprintPropertyIdempotent(t *testing.T) {
	// Canonicalisation is a fixed point: fingerprinting a canonical
	// spec reproduces the original fingerprint for arbitrary valid
	// shapes drawn from a small generator.
	f := func(capKB uint8, assocExp uint8, dram bool, seq bool) bool {
		capBytes := (int64(capKB%64) + 1) * 64 << 10
		assoc := 1 << (assocExp % 4)
		ram := tech.SRAM
		mode := Normal
		if dram {
			ram = tech.COMMDRAM
		}
		if seq {
			mode = Sequential
		}
		s := Spec{RAM: ram, CapacityBytes: capBytes, BlockBytes: 64,
			Associativity: assoc, IsCache: true, Mode: mode}
		fp1, err := s.Fingerprint()
		if err != nil {
			return false
		}
		c, err := s.Canonical()
		if err != nil {
			return false
		}
		fp2, err := c.Fingerprint()
		return err == nil && fp1 == fp2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExploreDeterministicOrder(t *testing.T) {
	// Two independent Explore calls must return the identical
	// sequence of organizations — the guarantee parallel sweep
	// callers (internal/explore) rely on. Assert the documented total
	// order directly: access time ascending, exact ties broken by
	// orgLess.
	spec := sramCache(2<<20, 8, 1)
	a, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Data.Org != b[i].Data.Org {
			t.Fatalf("position %d differs across runs: %v vs %v", i, a[i].Data.Org, b[i].Data.Org)
		}
		if i > 0 {
			if a[i].AccessTime < a[i-1].AccessTime {
				t.Fatalf("position %d not sorted by access time", i)
			}
			if a[i].AccessTime == a[i-1].AccessTime && !orgLess(a[i-1].Data.Org, a[i].Data.Org) {
				t.Fatalf("position %d: tie not broken by org order: %v !< %v",
					i, a[i-1].Data.Org, a[i].Data.Org)
			}
		}
	}
	// The filtered (optimized) ordering is deterministic too.
	fa := Filter(spec, a)
	fb := Filter(spec, b)
	if len(fa) != len(fb) || len(fa) == 0 {
		t.Fatalf("filter lengths differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Data.Org != fb[i].Data.Org {
			t.Fatalf("filtered position %d differs: %v vs %v", i, fa[i].Data.Org, fb[i].Data.Org)
		}
	}
}
