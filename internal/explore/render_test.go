package explore

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"cactid/internal/array"
	"cactid/internal/core"
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

// TestRenderMatchesReference renders real solved and errored points
// across every technology provider, alone and as arrays (including
// the empty one), under each layout.
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
	results := New(Options{}).Sweep(context.Background(), specs)
	if last := results[len(results)-1]; !errors.Is(last.Err, core.ErrNoSolution) {
		t.Fatalf("last point should have no solution, got %v", last.Err)
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
		checkRenderAll(t, results, l[0], l[1])
		checkRenderAll(t, results[:1], l[0], l[1])
		checkRenderAll(t, nil, l[0], l[1])
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
// characters, control bytes, invalid UTF-8, U+2028), tag array set or
// not, and compact or indented layout, AppendResultJSON and
// AppendSolutionJSON write exactly what encoding/json writes for the
// reference maps, or both fail.
func FuzzRenderResult(f *testing.F) {
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
	})
}
