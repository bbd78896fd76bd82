package array

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"cactid/internal/tech"
)

// resetMatTable empties the process-wide mat-stage table, so a test or
// benchmark leg starts cold. The counters keep running.
func resetMatTable() {
	matTable.mu.Lock()
	matTable.m = nil
	matTable.mu.Unlock()
}

var techPtrType = reflect.TypeOf((*tech.Technology)(nil))

// bitsDiff describes the first field where a and b differ, comparing
// floats by their bit patterns, or returns "" when they are identical.
// Technology pointers are skipped: the tables are the solve's input,
// which the MatTable key tests cover.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %t vs %t", path, a.Bool(), b.Bool())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.Type() == techPtrType {
			return ""
		}
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		return bitsDiff(path, a.Elem(), b.Elem())
	default:
		return fmt.Sprintf("%s: unexpected kind %v", path, a.Kind())
	}
	return ""
}

// banksDiff compares two bank lists bit for bit.
func banksDiff(got, want []*Bank) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d banks vs %d", len(got), len(want))
	}
	for i := range got {
		if d := bitsDiff("Bank", reflect.ValueOf(got[i]), reflect.ValueOf(want[i])); d != "" {
			return fmt.Sprintf("bank %d (%v): %s", i, want[i].Org, d)
		}
	}
	return ""
}

// tableSolve runs the array half of a solve: the prescan, the exact
// minimum-area walk and the full enumeration, as the solver reaches
// them through the table, releasing the prescan as the solver does.
func tableSolve(spec Spec) ([]*Bank, error) {
	pre, err := Prescan(spec)
	if err != nil {
		return nil, err
	}
	defer pre.Release()
	pre.MinArea()
	enum, _, err := pre.Enumerate(context.Background(), NoLimits())
	defer enum.Release()
	return copyOut(enum.Banks), err
}

// tableKey names a mat-stage table key by the provider and node that
// build its Technology.
type tableKey struct {
	provider string
	node     tech.Node
	ram      tech.RAMType
	ports    int
}

// tableKeySpace lists the keys the warm test covers: every provider,
// nodes 32/45/65/78/90 (78 is interpolated), the three requested RAM
// types mapped through the provider, and one and two ports for SRAM.
// Providers that build the same Technology (the ITRS family) list the
// same table key more than once.
func tableKeySpace(t testing.TB) []tableKey {
	t.Helper()
	var keys []tableKey
	for _, name := range tech.Providers() {
		p, err := tech.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []tech.Node{32, 45, 65, 78, 90} {
			for _, req := range []tech.RAMType{tech.SRAM, tech.LPDRAM, tech.COMMDRAM} {
				ram, err := p.DataRAM(req)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, tableKey{name, n, ram, 1})
				if ram == tech.SRAM {
					keys = append(keys, tableKey{name, n, ram, 2})
				}
			}
		}
	}
	return keys
}

// tableSpec draws one seeded array spec for a key: capacity, output
// width, associativity, routing, page size, pipelining, slack and
// sleep transistors vary; the key fixes the mat stage.
func tableSpec(t testing.TB, k tableKey, r *rand.Rand) Spec {
	t.Helper()
	tt, err := tech.TechnologyOf(k.provider, k.node)
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(8<<10) << r.IntN(10) // 8 KB .. 4 MB
	if r.IntN(3) == 0 {
		capacity = capacity * 3 / 2
	}
	spec := Spec{
		Tech:              tt,
		RAM:               k.ram,
		CapacityBytes:     capacity,
		OutputBits:        64 << r.IntN(4),
		AssocReadout:      1 << r.IntN(4),
		RouteAllWays:      r.IntN(4) == 0,
		MaxPipelineStages: []int{0, 6}[r.IntN(2)],
		RepeaterSlack:     []float64{0, 0.2}[r.IntN(2)],
		SleepTransistors:  r.IntN(4) == 0,
		Ports:             k.ports,
	}
	if tt.Cell(k.ram).Kind == tech.Kind1T1C && r.IntN(2) == 0 {
		spec.PageBits = 8192
	}
	return spec
}

// TestMatTableWarmByteIdentical warms the table with over a thousand
// seeded specs of mixed technologies, then checks a second seeded
// batch served entirely from warm entries: every bank the enumeration
// returns equals array.Build's cold model of the same organization,
// float bit for float bit.
func TestMatTableWarmByteIdentical(t *testing.T) {
	resetMatTable()
	keys := tableKeySpace(t)
	r := rand.New(rand.NewPCG(16, 1))
	const warm = 1024
	for i := 0; i < warm; i++ {
		// Every key first, then seeded draws over the key space.
		k := keys[i%len(keys)]
		if i >= len(keys) {
			k = keys[r.IntN(len(keys))]
		}
		if _, err := tableSolve(tableSpec(t, k, r)); err != nil {
			t.Fatalf("warm spec %d (%+v): %v", i, k, err)
		}
	}

	before := MatTableCounters()
	checked := 0
	for i, k := range keys {
		spec := tableSpec(t, k, r)
		pre, err := Prescan(spec)
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		enum, _, err := pre.Enumerate(context.Background(), NoLimits())
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		for _, b := range enum.Banks {
			if b.Mat.Tech != spec.Tech {
				t.Fatalf("check %d %+v %v: the bank's Mat points at the table's Technology copy", i, k, b.Org)
			}
			cold, err := Build(spec, b.Org)
			if err != nil {
				t.Fatalf("check %d %+v %v: cold Build failed: %v", i, k, b.Org, err)
			}
			if d := banksDiff([]*Bank{b}, []*Bank{cold}); d != "" {
				t.Fatalf("check %d %+v: warm enumeration differs from cold Build: %s", i, k, d)
			}
			checked++
		}
		enum.Release()
	}
	after := MatTableCounters()
	if after.Misses != before.Misses || after.Clears != before.Clears {
		t.Fatalf("check specs missed the warm table: %+v -> %+v", before, after)
	}
	if after.Hits-before.Hits != int64(len(keys)) || checked < 10*len(keys) {
		t.Fatalf("%d keys, %d table hits, %d banks checked", len(keys), after.Hits-before.Hits, checked)
	}
}

// TestMatTableConcurrentSolves races eight goroutines, four per
// technology, through a cold table and compares every result with a
// serial solve. `make race` runs it under the race detector.
func TestMatTableConcurrentSolves(t *testing.T) {
	stt, err := tech.TechnologyOf("stt-ram", tech.Node45)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Tech: tech.New(tech.Node32), RAM: tech.SRAM, CapacityBytes: 1 << 20, OutputBits: 512, AssocReadout: 1},
		{Tech: stt, RAM: tech.STTRAM, CapacityBytes: 2 << 20, OutputBits: 512, AssocReadout: 1},
	}
	want := make([][]*Bank, len(specs))
	for i, spec := range specs {
		resetMatTable()
		if want[i], err = tableSolve(spec); err != nil {
			t.Fatal(err)
		}
	}

	resetMatTable()
	const goroutines = 8
	got := make([][]*Bank, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := specs[g%len(specs)]
			tt := *spec.Tech // each solve brings its own copy, as core does
			spec.Tech = &tt
			got[g], errs[g] = tableSolve(spec)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if d := banksDiff(got[g], want[g%len(specs)]); d != "" {
			t.Fatalf("goroutine %d differs from the serial solve: %s", g, d)
		}
	}
}

// TestMatTableOwnsTechnology: an entry builds from its own copy of the
// key's Technology, so a caller that edits its table after a solve
// changes neither that entry nor a later solve of the original value.
func TestMatTableOwnsTechnology(t *testing.T) {
	resetMatTable()
	const ram = tech.LPDRAM
	tt := tech.New(tech.Node45)
	spec := Spec{Tech: tt, RAM: ram, CapacityBytes: 4 << 20, OutputBits: 512, AssocReadout: 1}
	first, err := tableSolve(spec)
	if err != nil {
		t.Fatal(err)
	}

	tt.Cells[ram].RetentionT = tt.Cells[ram].RetentionT / 4
	edited, err := tableSolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if banksDiff(edited, first) == "" {
		t.Fatal("editing the retention time left every bank unchanged; the test cannot see a stale entry")
	}

	spec.Tech = tech.New(tech.Node45)
	again, err := tableSolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := banksDiff(again, first); d != "" {
		t.Fatalf("original technology after an edit differs from its first solve: %s", d)
	}
}

// negZero returns the path of the first negative-zero float in v, or "".
func negZero(path string, v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); f == 0 && math.Signbit(f) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := negZero(path+"."+v.Type().Field(i).Name, v.Field(i)); p != "" {
				return p
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := negZero(fmt.Sprintf("%s[%d]", path, i), v.Index(i)); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestMatTableKeysSelfEqual: every provider's Technology at every
// integer node equals itself, so its key can hit. A NaN field would
// miss on every lookup. No field is a negative zero either, which ==
// would equate with a positive zero of different bits.
func TestMatTableKeysSelfEqual(t *testing.T) {
	for _, name := range tech.Providers() {
		for n := tech.Node(32); n <= 90; n++ {
			tt, err := tech.TechnologyOf(name, n)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, n, err)
			}
			if c := *tt; c != *tt {
				t.Errorf("%s@%d: Technology does not equal itself (a NaN field)", name, n)
			}
			if p := negZero("Technology", reflect.ValueOf(*tt)); p != "" {
				t.Errorf("%s@%d: %s is a negative zero", name, n, p)
			}
		}
	}
}

// TestMatTableCapClears: filling the table past its cap clears it
// exactly once, and the next solve rebuilds its entry to the same
// banks.
func TestMatTableCapClears(t *testing.T) {
	resetMatTable()
	spec := specSRAM(1<<20, 512, 1)
	want, err := tableSolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := MatTableCounters()
	base := *tech.New(tech.Node32)
	for i := 0; i < matTableCap; i++ {
		tt := base
		tt.SenseAmpEnergy = float64(i + 1) // a distinct key per insert
		matStageFor(&tt, tech.SRAM, 1)
	}
	filled := MatTableCounters()
	if filled.Clears-before.Clears != 1 || filled.Misses-before.Misses != matTableCap {
		t.Fatalf("%d inserts past one entry: counters %+v -> %+v, want one clear", matTableCap, before, filled)
	}
	got, err := tableSolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if after := MatTableCounters(); after.Misses-filled.Misses != 1 {
		t.Fatalf("solve after the clear: counters %+v -> %+v, want one miss", filled, after)
	}
	if d := banksDiff(got, want); d != "" {
		t.Fatalf("solve after the clear differs: %s", d)
	}
}

// BenchmarkMatTable times the array half of a solve (prescan, exact
// minimum-area walk, full enumeration) of the
// BenchmarkArrayEnumerate spec with the mat-stage table warm, as every
// solve after a technology's first finds it, and cold, as before the
// table existed.
func BenchmarkMatTable(b *testing.B) {
	spec := Spec{Tech: tech.New(tech.Node32), RAM: tech.SRAM, CapacityBytes: 1 << 20, OutputBits: 512, AssocReadout: 1}
	for _, leg := range []struct {
		name string
		cold bool
	}{{"table-warm", false}, {"table-cold", true}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			if _, err := tableSolve(spec); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if leg.cold {
					resetMatTable()
				}
				if _, err := tableSolve(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMatTableTellsTechnologiesApart: two Technology values at one
// node, RAM type and port count that differ in a single field share a
// table key but get an entry each, each built from its own value; each
// one's second lookup is a hit on its own entry, and the cap counts
// both entries.
func TestMatTableTellsTechnologiesApart(t *testing.T) {
	resetMatTable()
	a := *tech.New(tech.Node32)
	b := a
	b.SenseAmpDelay *= 2
	before := MatTableCounters()
	stA := matStageFor(&a, tech.SRAM, 1)
	stB := matStageFor(&b, tech.SRAM, 0) // ports < 1 read as 1
	if stA == stB || stA.tech != a || stB.tech != b {
		t.Fatal("two technologies that differ in one field share an entry")
	}
	if matStageFor(&a, tech.SRAM, 1) != stA || matStageFor(&b, tech.SRAM, 1) != stB {
		t.Fatal("a second lookup did not return the technology's own entry")
	}
	after := MatTableCounters()
	if after.Misses-before.Misses != 2 || after.Hits-before.Hits != 2 || after.Clears != before.Clears {
		t.Fatalf("counters %+v -> %+v, want two misses and two hits", before, after)
	}
	matTable.mu.Lock()
	keys, entries := len(matTable.m), matTable.n
	matTable.mu.Unlock()
	if keys != 1 || entries != 2 {
		t.Fatalf("table holds %d keys and counts %d entries, want 1 and 2", keys, entries)
	}
}
