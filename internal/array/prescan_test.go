package array

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cactid/internal/tech"
)

// precheckSlot is the reference classification of one (rows, cols)
// slot: OrgFor followed by precheck for every mux degree, one triple
// at a time, returning the survivors in ascending mux order and the
// slot's precheck counters.
func precheckSlot(bc *buildCtx, rows, cols int) (surv []Org, c Counters) {
	for _, mux := range enumMux {
		c.Considered++
		if mux > cols {
			c.PrunedMux++
			continue
		}
		o := OrgFor(bc.spec, rows, cols, mux)
		switch bc.precheck(o) {
		case prOK:
			surv = append(surv, o)
		case prGeom:
			c.PrunedGeom++
		case prPage:
			c.PrunedPage++
		case prOutput:
			c.PrunedOutput++
		case prWaste:
			c.PrunedWaste++
		}
	}
	return surv, c
}

// checkClassify prescans spec and compares every slot's classification
// with the reference loop: the survivor mask, the five prune buckets,
// the rebuilt survivors, the exactPt layout and the prescan's points.
// It returns nil when spec is not a valid array spec.
func checkClassify(spec Spec) error {
	if _, err := newBuildCtx(spec); err != nil {
		return nil
	}
	pre, err := Prescan(spec)
	if err != nil {
		return fmt.Errorf("prescan: %v", err)
	}
	bc := pre.bc
	var wantPts []Org
	off := 0
	for slot := range bc.class {
		rows, cols := slotRC(slot)
		sc := &bc.class[slot]
		wantSurv, wantC := precheckSlot(bc, rows, cols)
		var gotC Counters
		gotC.addSlot(sc)
		if gotC != wantC {
			return fmt.Errorf("%dx%d: counters %+v, want %+v", rows, cols, gotC, wantC)
		}
		var wantMask uint16
		for _, o := range wantSurv {
			wantMask |= 1 << bits.TrailingZeros(uint(o.Mux))
		}
		if sc.surv != wantMask {
			return fmt.Errorf("%dx%d: survivor mask %011b, want %011b", rows, cols, sc.surv, wantMask)
		}
		var buf [len(enumMux)]Org
		if got := bc.survivors(slot, sc.surv, &buf); !slices.Equal(got, wantSurv) {
			return fmt.Errorf("%dx%d: survivors %v, want %v", rows, cols, got, wantSurv)
		}
		if int(sc.off) != off {
			return fmt.Errorf("%dx%d: exactPt offset %d, want %d", rows, cols, sc.off, off)
		}
		off += len(wantSurv)
		if len(wantSurv) > 0 && !bc.marginFail[slot/len(enumCols)] {
			wantPts = append(wantPts, wantSurv[0])
		}
	}
	if len(bc.exactPt) != off {
		return fmt.Errorf("exactPt holds %d slots for %d survivors", len(bc.exactPt), off)
	}
	if len(pre.Points) != len(wantPts) || cap(pre.Points) != len(wantPts) {
		return fmt.Errorf("%d points (cap %d), want %d", len(pre.Points), cap(pre.Points), len(wantPts))
	}
	for i, p := range pre.Points {
		if p.Org != wantPts[i] {
			return fmt.Errorf("point %d is %v, want %v", i, p.Org, wantPts[i])
		}
	}
	return nil
}

// classifySpec draws one seeded array spec for a mat-stage key:
// capacities from 512 B to 1 GiB (some ECC-widened by 9/8 or 3/2 of a
// power of two), output widths that are powers of two, ECC-widened or
// tag bits times associativity, and page sizes that are unset, DRAM
// pages, or sizes no slot can meet.
func classifySpec(t testing.TB, k tableKey, r *rand.Rand) Spec {
	t.Helper()
	tt, err := tech.TechnologyOf(k.provider, k.node)
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(512) << r.IntN(22)
	switch r.IntN(3) {
	case 0:
		capacity = capacity * 9 / 8
	case 1:
		capacity = capacity * 3 / 2
	}
	var out int
	switch r.IntN(3) {
	case 0:
		out = 8 << r.IntN(8)
	case 1:
		out = (64 << r.IntN(4)) * 9 / 8
	default:
		out = (8 + r.IntN(33)) * (1 << r.IntN(5)) // tag bits x ways
	}
	spec := Spec{
		Tech:          tt,
		RAM:           k.ram,
		CapacityBytes: capacity,
		OutputBits:    out,
		AssocReadout:  1 << r.IntN(5),
		Ports:         k.ports,
	}
	switch r.IntN(4) {
	case 0:
		spec.PageBits = 1024 << r.IntN(5)
	case 1:
		spec.PageBits = []int{64, 3000, 1 << 24}[r.IntN(3)]
	}
	return spec
}

// The per-slot classification is the enumeration's only precheck: its
// masks, bucket counts and rebuilt survivors must equal OrgFor plus
// precheck triple by triple, on generated specs over every provider.
func TestClassifyMatchesPrecheck(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 4))
	n := 0
	for _, k := range tableKeySpace(t) {
		for i := 0; i < 12; i++ {
			spec := classifySpec(t, k, r)
			if err := checkClassify(spec); err != nil {
				t.Fatalf("%s %vnm %v cap %d out %d assoc %d page %d: %v", k.provider, k.node, k.ram,
					spec.CapacityBytes, spec.OutputBits, spec.AssocReadout, spec.PageBits, err)
			}
			n++
		}
	}
	t.Logf("%d specs", n)
}

// FuzzClassify drives the classification comparison with arbitrary
// capacities, widths and page sizes, overflowing ones included.
func FuzzClassify(f *testing.F) {
	providers := tech.Providers()
	nodes := []tech.Node{32, 45, 65, 78, 90}
	f.Fuzz(func(t *testing.T, provider, node, ram uint8, capacity int64, outputBits, assoc, pageBits int, ports uint8) {
		name := providers[int(provider)%len(providers)]
		p, err := tech.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		n := nodes[int(node)%len(nodes)]
		tt, err := tech.TechnologyOf(name, n)
		if err != nil {
			t.Fatal(err)
		}
		dataRAM, err := p.DataRAM([]tech.RAMType{tech.SRAM, tech.LPDRAM, tech.COMMDRAM}[int(ram)%3])
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{
			Tech: tt, RAM: dataRAM, CapacityBytes: capacity, OutputBits: outputBits,
			AssocReadout: assoc, PageBits: pageBits, Ports: 1,
		}
		if dataRAM == tech.SRAM {
			spec.Ports = 1 + int(ports%2)
		}
		if err := checkClassify(spec); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	})
}

// TestClassifyWideMatCounts: capacities of terabytes give mat counts
// past 32 bits, and output widths of tag bits times ways give mats per
// subbank that are not powers of two; every slot still classifies as
// OrgFor plus precheck do.
func TestClassifyWideMatCounts(t *testing.T) {
	for _, capacity := range []int64{1 << 41, 3 << 42, 1<<59 + 1<<40} {
		for _, out := range []int{26 * 8, 9 * 64, 26 * 12} {
			spec := Spec{Tech: tech.New(tech.Node32), RAM: tech.SRAM,
				CapacityBytes: capacity, OutputBits: out, AssocReadout: 3}
			if err := checkClassify(spec); err != nil {
				t.Fatalf("cap %d out %d: %v", capacity, out, err)
			}
		}
	}
}

// Prescanned.Build indexes the mat-stage table by grid slot, so an
// organization off the grid must get exactly what the package-level
// Build gives it (an error or a cold-built bank), never a neighbouring
// slot's model or an index panic; OrgFor must not divide by zero for
// a mux wider than a mat's sensed bits.
func TestPrescannedBuildOffGrid(t *testing.T) {
	for name, spec := range map[string]Spec{
		"sram": specSRAM(1<<20, 512, 1),
		"comm-dram": {Tech: tech.New(tech.Node45), RAM: tech.COMMDRAM,
			CapacityBytes: 16 << 20, OutputBits: 512, AssocReadout: 1, PageBits: 8192},
	} {
		pre, err := Prescan(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{16, 96, 256, 16384} {
			for _, cols := range []int{48, 256} {
				for _, mux := range []int{3, 4, 2048} {
					o := OrgFor(spec, rows, cols, mux)
					if mux > 4*cols && spec.PageBits == 0 && o.MatsPerSubbank != 0 {
						t.Errorf("%s: OrgFor(%d, %d, %d) = %v, want MatsPerSubbank 0", name, rows, cols, mux, o)
					}
					want, wantErr := Build(spec, o)
					got, gotErr := pre.Build(o)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Errorf("%s %v: Prescanned.Build error %v, Build error %v", name, o, gotErr, wantErr)
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %v: Prescanned.Build and Build return different banks", name, o)
					}
				}
			}
		}
	}
}

// BenchmarkPrescan times the spec-dependent half of a solve's array
// stage with the mat-stage table warm: the prescan plus the exact
// minimum-area and minimum-access walks, on an SRAM and a COMM-DRAM
// data array and on the tag array of a 4 MB 8-way SRAM cache, whose
// capacity and output width are not powers of two. Each prescan is
// released as the solver releases it, so its scratch is reused.
func BenchmarkPrescan(b *testing.B) {
	for _, leg := range []struct {
		name string
		spec Spec
	}{
		{"sram", specSRAM(4<<20, 512, 8)},
		{"comm-dram", Spec{Tech: tech.New(tech.Node32), RAM: tech.COMMDRAM,
			CapacityBytes: 64 << 20, OutputBits: 512, AssocReadout: 1, PageBits: 8192}},
		{"sram-tag", specSRAM(8192*8*26/8, 8*26, 1)}, // 8192 sets x 8 ways x 26 tag bits
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			walk := func() {
				pre, err := Prescan(leg.spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := pre.MinArea(); !ok {
					b.Fatal("no feasible point")
				}
				pre.MinAccessWithin(1, 0, math.Inf(1))
				pre.Release()
			}
			walk() // fill the table
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk()
			}
		})
	}
}

// stableOrder is the reference walk order: the indices of pts stably
// sorted by key under the walks' comparison, <.
func stableOrder(pts []PrescanPoint, key func(*PrescanPoint) float64) []uint8 {
	idx := make([]uint8, len(pts))
	for i := range idx {
		idx[i] = uint8(i)
	}
	slices.SortStableFunc(idx, func(a, b uint8) int {
		switch ka, kb := key(&pts[a]), key(&pts[b]); {
		case ka < kb:
			return -1
		case kb < ka:
			return 1
		}
		return 0
	})
	return idx
}

// checkWalkOrders compares a prescan's two walk orders with the
// reference stable sorts of the same keys.
func checkWalkOrders(pre *Prescanned) error {
	acc := func(p *PrescanPoint) float64 { return p.AccLB }
	area := func(p *PrescanPoint) float64 { return p.AreaLB }
	if got, want := pre.ByAccess(), stableOrder(pre.Points, acc); !slices.Equal(got, want) {
		return fmt.Errorf("ByAccess %v, want %v", got, want)
	}
	if got, want := pre.byArea(), stableOrder(pre.Points, area); !slices.Equal(got, want) {
		return fmt.Errorf("byArea %v, want %v", got, want)
	}
	return nil
}

// TestWalkOrderMatchesStableSort: the walk orders, insertion-sorted
// beside a copy of their keys, equal slices.SortStableFunc over the
// same keys, on generated specs over every provider and on a hand-built
// point set whose keys tie (equal values, and zeros of both signs).
func TestWalkOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 5))
	n := 0
	for _, k := range tableKeySpace(t) {
		for i := 0; i < 4; i++ {
			spec := classifySpec(t, k, r)
			pre, err := Prescan(spec)
			if err != nil {
				continue
			}
			if err := checkWalkOrders(pre); err != nil {
				t.Fatalf("%s %vnm %v cap %d out %d: %v", k.provider, k.node, k.ram, spec.CapacityBytes, spec.OutputBits, err)
			}
			n += len(pre.Points)
			pre.Release()
		}
	}
	t.Logf("%d points", n)

	minusZero := math.Copysign(0, -1)
	keys := []float64{3, 1, 2, 1, 0, minusZero, 3, 2, 0, 1, minusZero, 5, 1}
	pts := make([]PrescanPoint, len(keys))
	for i, k := range keys {
		pts[i] = PrescanPoint{AreaLB: k, AccLB: keys[len(keys)-1-i]}
	}
	pre := &Prescanned{bc: new(buildCtx), Points: pts}
	if err := checkWalkOrders(pre); err != nil {
		t.Fatalf("tied keys: %v", err)
	}
}
