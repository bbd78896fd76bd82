package explore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/spectest"
	"cactid/internal/tech"
)

// renderLayouts are the (prefix, indent) pairs the typed renderer is
// checked under: compact, cactid-serve's indentation, and a prefixed
// tab layout that exercises the prefix path.
var renderLayouts = [][2]string{{"", ""}, {"", "  "}, {"> ", "\t"}}

// referenceJSON renders v as the typed renderer must: json.Marshal
// for an empty indent, else json.MarshalIndent.
func referenceJSON(v any, prefix, indent string) ([]byte, error) {
	if indent == "" {
		return json.Marshal(v)
	}
	return json.MarshalIndent(v, prefix, indent)
}

// renderLead stands for bytes already in dst: the renderer must keep
// them and, on failure, append nothing after them.
const renderLead = "lead:"

func compareRender(t *testing.T, name string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: error %v, encoding/json error %v", name, err, wantErr)
	case err != nil:
		if string(got) != renderLead {
			t.Fatalf("%s: failed render left %q after dst", name, got[len(renderLead):])
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, encoding/json error %q", name, err, wantErr)
		}
	case string(got) != renderLead+string(want):
		t.Fatalf("%s: bytes differ from encoding/json\n got %s\nwant %s", name, got, want)
	}
}

// checkRender compares AppendResultJSON, and AppendSolutionJSON for a
// solved point, with encoding/json over the reference maps.
func checkRender(t *testing.T, r Result, prefix, indent string) {
	t.Helper()
	got, err := AppendResultJSON([]byte(renderLead), r, prefix, indent)
	want, wantErr := referenceJSON(ResultJSON(r), prefix, indent)
	compareRender(t, "AppendResultJSON", got, err, want, wantErr)
	if r.Solution != nil {
		got, err = AppendSolutionJSON([]byte(renderLead), r.Solution, prefix, indent)
		want, wantErr = referenceJSON(SolutionJSON(r.Solution), prefix, indent)
		compareRender(t, "AppendSolutionJSON", got, err, want, wantErr)
	}
}

func checkRenderAll(t *testing.T, results []Result, prefix, indent string) {
	t.Helper()
	ref := make([]map[string]any, len(results))
	for i, r := range results {
		ref[i] = ResultJSON(r)
	}
	got, err := AppendResultsJSON([]byte(renderLead), results, prefix, indent)
	want, wantErr := referenceJSON(ref, prefix, indent)
	compareRender(t, "AppendResultsJSON", got, err, want, wantErr)
}

// hitOf returns r as a tier-0 hit on a finished entry that holds r's
// solution and no value table yet.
func hitOf(r Result) Result {
	r.hit = &entry{ready: make(chan struct{}), sol: r.Solution}
	close(r.hit.ready)
	return r
}

// TestRenderMatchesReference renders real solved and errored points
// across every technology provider, alone and as arrays (including
// the empty one), under each layout. Every point is rendered again as
// the tier-0 hit a second sweep through the same engine answers: the
// first layout's renders fill the entries' value tables, and the
// later renders, in every layout, copy from them.
func TestRenderMatchesReference(t *testing.T) {
	g := Grid{
		Base:       core.Spec{Node: tech.Node32, IsCache: true, BlockBytes: 64},
		Techs:      tech.Providers(),
		Capacities: []int64{64 << 10},
		Assocs:     []int{4},
	}
	specs, _ := g.Expand()
	// A plain COMM-DRAM memory with an unreachable page size has no
	// solution: an errored point with a fingerprint.
	specs = append(specs, core.Spec{Node: tech.Node32, RAM: tech.COMMDRAM,
		CapacityBytes: 1 << 20, BlockBytes: 64, PageBits: 7})
	eng := New(Options{})
	results := eng.Sweep(context.Background(), specs)
	if last := results[len(results)-1]; !errors.Is(last.Err, core.ErrNoSolution) {
		t.Fatalf("last point should have no solution, got %v", last.Err)
	}
	hits := eng.Sweep(context.Background(), specs)
	for _, h := range hits {
		if !h.Cached || h.hit == nil || h.hit.table.Load() != nil {
			t.Fatalf("point %d of the second sweep: cached %v, entry %p, want a hit on an entry without a table", h.Index, h.Cached, h.hit)
		}
	}
	// Points no sweep produces: an invalid spec without a fingerprint,
	// and a result with neither a solution nor an error.
	results = append(results,
		Result{Index: 7, Spec: core.Spec{Technology: "x<y>&z"}, Err: errors.New(`bad "spec" <1>`)},
		Result{Index: 8, Spec: core.Spec{RAM: tech.PCM, Mode: core.Fast}, Cached: true})
	for _, l := range renderLayouts {
		for _, r := range results {
			checkRender(t, r, l[0], l[1])
		}
		for _, h := range hits {
			checkRender(t, h, l[0], l[1])
		}
		checkRenderAll(t, results, l[0], l[1])
		checkRenderAll(t, hits, l[0], l[1])
		checkRenderAll(t, results[:1], l[0], l[1])
		checkRenderAll(t, nil, l[0], l[1])
	}
	for _, h := range hits {
		if h.Solution != nil && h.hit.table.Load() == nil {
			t.Errorf("point %d: rendering the hit left its entry without a value table", h.Index)
		}
	}
}

// Flags of FuzzRenderResult's flags argument.
const (
	fuzzTag         = 1 << iota // the solution has a tag array
	fuzzIndent                  // MarshalIndent layout instead of Marshal
	fuzzPrefix                  // a non-empty MarshalIndent prefix
	fuzzErr                     // the point carries an error
	fuzzNoSolution              // the point has no solution
	fuzzCached                  // the point was a cache hit
	fuzzFingerprint             // the point carries a fingerprint
	fuzzLong                    // the solution's technology is padded past 65,535 bytes
)

// fuzzResult builds a point from fuzz input. The twelve metrics take
// raw's first twelve 8-byte words as float64 bits; later words give
// the solution's spec, organizations and the point's own spec, with
// missing bytes read as zero. The point's spec and its solution's
// spec differ, so rendering the wrong one is caught.
func fuzzResult(raw []byte, errMsg, solTech, specTech string, flags uint8) Result {
	word := func(i int) uint64 {
		var w [8]byte
		if 8*i < len(raw) {
			copy(w[:], raw[8*i:])
		}
		return binary.LittleEndian.Uint64(w[:])
	}
	f := func(i int) float64 { return math.Float64frombits(word(i)) }
	n := func(i int) int { return int(int32(word(i))) }
	spec := func(i int, techName string) core.Spec {
		return core.Spec{Node: tech.Node(n(i)), RAM: tech.RAMType(n(i + 1)), Technology: techName,
			CapacityBytes: int64(word(i + 2)), BlockBytes: n(i + 3), Associativity: n(i + 4),
			Banks: n(i + 5), Mode: core.AccessMode(n(i + 6))}
	}
	org := func(i int) array.Org {
		return array.Org{Rows: n(i), Cols: n(i + 1), Mux: n(i + 2),
			MatsPerSubbank: n(i + 3), Subbanks: n(i + 4), Mats: n(i + 5)}
	}
	if flags&fuzzLong != 0 {
		pad := solTech
		if pad == "" {
			pad = "<"
		}
		solTech += strings.Repeat(pad, 1<<16/len(pad)+1)
	}
	sol := &core.Solution{
		Spec:       spec(12, solTech),
		Data:       &array.Bank{Org: org(19), PipelineStages: n(25)},
		AccessTime: f(0), RandomCycle: f(1), InterleaveCycle: f(2),
		Area: f(3), BankArea: f(4), AreaEff: f(5),
		EReadPerAccess: f(6), EWritePerAccess: f(7),
		LeakagePower: f(8), RefreshPower: f(9),
		WriteTime: f(10), WriteEndurance: f(11),
	}
	if flags&fuzzTag != 0 {
		sol.Tag = &array.Bank{Org: org(26)}
	}
	r := Result{Index: n(32), Spec: spec(33, specTech), Solution: sol, Cached: flags&fuzzCached != 0}
	if flags&fuzzNoSolution != 0 {
		r.Solution = nil
	}
	if flags&fuzzErr != 0 {
		r.Err = errors.New(errMsg)
	}
	if flags&fuzzFingerprint != 0 {
		r.Fingerprint = errMsg + specTech
	}
	return r
}

// FuzzRenderResult is a differential test of the typed renderer:
// for any metric float bits (-0, subnormals, the 1e-6 and 1e21 format
// switches, NaN, ±Inf), any error or technology string (HTML
// characters, control bytes, invalid UTF-8, U+2028, longer than 65,535
// bytes), tag array set or not, and compact or indented layout,
// AppendResultJSON and AppendSolutionJSON write exactly what
// encoding/json writes for the reference maps, or both fail. A solved
// point renders the same bytes twice more as a tier-0 hit: once
// filling its entry's value table, once copying from it.
func FuzzRenderResult(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x3f, 0x50, 0x62, 0x4d, 0xd2, 0xf1, 0xa9, 0xfc}, 40), "", "x<y>\u2028\xff", "itrs-hp",
		uint8(fuzzLong|fuzzTag|fuzzIndent|fuzzFingerprint))
	f.Fuzz(func(t *testing.T, raw []byte, errMsg, solTech, specTech string, flags uint8) {
		r := fuzzResult(raw, errMsg, solTech, specTech, flags)
		prefix, indent := "", ""
		if flags&fuzzIndent != 0 {
			indent = "  "
			if flags&fuzzPrefix != 0 {
				prefix = "\t"
			}
		}
		checkRender(t, r, prefix, indent)
		if r.Solution != nil {
			hit := hitOf(r)
			checkRender(t, hit, prefix, indent)
			checkRender(t, hit, prefix, indent)
		}
	})
}

// distinctSpecs draws n generated specs with distinct fingerprints,
// the shape of a design-space exploration's fresh points. Some admit
// no solution, which tier 0 caches too.
func distinctSpecs(n int, seed uint64) []core.Spec {
	r := rand.New(rand.NewPCG(seed, 19))
	seen := map[string]bool{}
	specs := make([]core.Spec, 0, n)
	for len(specs) < n {
		s := spectest.Spec(r)
		fp, err := s.Fingerprint()
		if err != nil || seen[fp] {
			continue
		}
		seen[fp] = true
		specs = append(specs, s)
	}
	return specs
}

// TestHitRendersMatchColdGenerated sweeps 600 generated specs of every
// provider twice through one engine. Every point of the second sweep
// is a tier-0 hit and renders the first sweep's bytes with only its
// cached member flipped, when its render fills the entry's value table
// and when a later one copies from it. The draws must include plain
// memories, non-default technologies, write times, write endurances
// and points with no solution. A hit whose Solution was replaced
// renders the new solution, not its entry's table.
func TestHitRendersMatchColdGenerated(t *testing.T) {
	ctx := context.Background()
	specs := distinctSpecs(600, 34)
	e := New(Options{})
	cold := e.Sweep(ctx, specs)
	warm := e.Sweep(ctx, specs)
	var plain, techs, writeTime, endurance, unsolved int
	for i, c := range cold {
		w := warm[i]
		if c.Cached || !w.Cached || w.hit == nil {
			t.Fatalf("point %d: cached %v then %v (entry %p), want a miss then a tier-0 hit", i, c.Cached, w.Cached, w.hit)
		}
		want, err := AppendResultJSON(nil, c, "", "")
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		want = bytes.Replace(want, []byte(`"cached":false`), []byte(`"cached":true`), 1)
		for pass := 0; pass < 2; pass++ {
			got, err := AppendResultJSON(nil, w, "", "")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("point %d, hit render %d (%v):\n got %s\nwant %s", i, pass+1, err, got, want)
			}
		}
		switch s := c.Solution; {
		case errors.Is(c.Err, core.ErrNoSolution):
			unsolved++
		case s != nil:
			if s.Tag == nil {
				plain++
			}
			if s.Spec.Technology != "" {
				techs++
			}
			if s.WriteTime > 0 {
				writeTime++
			}
			if s.WriteEndurance > 0 {
				endurance++
			}
		}
	}
	t.Logf("%d points: %d plain memories, %d non-default technologies, %d with write time, %d with endurance, %d with no solution",
		len(cold), plain, techs, writeTime, endurance, unsolved)
	if plain == 0 || techs == 0 || writeTime == 0 || endurance == 0 || unsolved == 0 {
		t.Fatal("the draws miss a kind of point")
	}

	for i := 1; i < len(warm); i++ {
		if warm[i].Solution != nil && warm[i-1].Solution != nil {
			swapped := warm[i]
			swapped.Solution = warm[i-1].Solution
			checkRender(t, swapped, "", "")
			return
		}
	}
	t.Fatal("no two neighbouring points solve")
}

// TestConcurrentHitRendersMatchReference renders one set of fresh
// tier-0 hits, whose entries have no value table yet, on eight
// goroutines at once: the renders race to build and publish each
// table, and every body must equal encoding/json's. make stress runs
// it under the race detector.
func TestConcurrentHitRendersMatchReference(t *testing.T) {
	ctx := context.Background()
	specs := distinctSpecs(64, 35)
	e := New(Options{})
	e.Sweep(ctx, specs)
	hits := e.Sweep(ctx, specs)
	ref := make([]map[string]any, len(hits))
	for i, h := range hits {
		if h.hit == nil {
			t.Fatalf("point %d of the second sweep is not a tier-0 hit", i)
		}
		ref[i] = ResultJSON(h)
	}
	want, err := referenceJSON(ref, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := AppendResultsJSON(nil, hits, "  ", "  ")
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent hit render (%v) differs from encoding/json", err)
			}
		}()
	}
	wg.Wait()
	for i, h := range hits {
		if h.Solution != nil && h.hit.table.Load() == nil {
			t.Errorf("point %d: no value table after the renders", i)
		}
	}
}
