package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/jsondec"
	"cactid/internal/tech"
)

// referenceDecode is encoding/json's decoding of one wire body, the
// typed decoder's reference: one value with only whitespace after it,
// and unknown keys rejected in the request, as cactid-serve's decode
// rejects them.
func referenceDecode(data []byte, v any, strict bool) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after top-level value: %v", err)
	}
	return nil
}

// sameDecoding reports whether two decodings are equal, down to the
// sign of a zero, which reflect.DeepEqual's == does not see.
func sameDecoding(got, want any) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	g, gErr := json.Marshal(got)
	w, wErr := json.Marshal(want)
	return gErr == nil && wErr == nil && bytes.Equal(g, w)
}

// checkAgrees compares a typed decoding of data with encoding/json's.
// When required, both must accept; otherwise only the typed decoder
// accepting what encoding/json rejects, or a disagreement where both
// accept, is a failure.
func checkAgrees[T any](t *testing.T, what string, data []byte, decode func([]byte) (T, error), strict, required bool) {
	t.Helper()
	got, err := decode(data)
	var want T
	wantErr := referenceDecode(data, &want, strict)
	switch {
	case required && (err != nil || wantErr != nil):
		t.Fatalf("%s: typed decoder error %v, encoding/json error %v\n%s", what, err, wantErr, data)
	case err == nil && wantErr != nil:
		t.Fatalf("%s: typed decoder accepts what encoding/json rejects (%v)\n%q", what, wantErr, data)
	case err == nil && !sameDecoding(got, want):
		t.Fatalf("%s: decodings differ\n got %+v\nwant %+v\n%q", what, got, want, data)
	}
}

// wireEdges returns copies of r with every spec and solution field
// set, stretched over the edges of the wire: signed zeros,
// subnormals, the float values on either side of the points where
// encoding/json switches between plain and exponent notation (1e-6
// and 1e21), and strings that need escapes, HTML-escaped characters,
// the JavaScript line separators and invalid UTF-8.
func wireEdges(r WireResult) []WireResult {
	floats := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1023, math.Nextafter(0x1p-1022, 0),
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21, math.MaxFloat64,
	}
	strs := []string{
		`quote " backslash \ slash /`, "\b\f\n\r\t\x00\x1f\x7f", "<script>&amp;</script>",
		"line\u2028sep\u2029para", "\xff\xfe bad \xc3( \xed\xa0\x80", "café 漢字 😀", "",
	}
	var out []WireResult
	for i, f := range floats {
		s := strs[i%len(strs)]
		ram := tech.RAMType(i % 3)
		spec := r.Spec
		spec.Technology = s
		spec.Banks, spec.Mode, spec.TagRAM = i+1, core.AccessMode(i%3), &ram
		spec.PageBits, spec.Ports, spec.PhysicalAddressBits = -i, i, 40+i
		spec.MaxAreaConstraint, spec.MaxAcctimeConstraint, spec.MaxRepeaterSlack = f, -f, f
		spec.Weights = &core.Weights{DynamicEnergy: f, LeakagePower: -f, RandomCycle: f, InterleaveCycle: 1}
		spec.IsCache, spec.SleepTransistors, spec.ECC, spec.IncludeBankRouting = i%2 == 0, true, true, true
		e := WireResult{Index: -i, Spec: spec, Fingerprint: s, Cached: true}
		if r.Solution != nil {
			sol := *r.Solution
			sol.Spec = &spec
			sol.AccessTime, sol.RandomCycle, sol.InterleaveCycle, sol.Area = f, f, -f, f
			sol.BankArea, sol.AreaEff, sol.EReadPerAccess, sol.EWritePerAccess = f, f, f, f
			sol.LeakagePower, sol.RefreshPower, sol.WriteTime, sol.WriteEndurance = f, f, f, f
			org := *sol.DataOrg
			sol.DataOrg, sol.DataPipelineStages = &org, -i
			if i%2 == 0 {
				sol.TagOrg = nil
			} else {
				sol.TagOrg = &org
			}
			e.Solution = &sol
		} else {
			e.Error, e.ErrorKind = s, s
		}
		out = append(out, e)
	}
	return out
}

// realWireResults solves a 64 KB cache on every technology provider
// and a plain memory, and adds one errored point per error kind.
func realWireResults(t testing.TB) []WireResult {
	t.Helper()
	g := explore.Grid{
		Base:       core.Spec{Node: tech.Node32, IsCache: true, BlockBytes: 64, MaxPipelineStages: 6},
		Techs:      tech.Providers(),
		Capacities: []int64{64 << 10},
		Assocs:     []int{4},
	}
	specs, _ := g.Expand()
	specs = append(specs, core.Spec{Node: tech.Node45, RAM: tech.LPDRAM, CapacityBytes: 1 << 20, BlockBytes: 64})
	var out []WireResult
	for _, r := range explore.New(explore.Options{}).Sweep(context.Background(), specs) {
		if r.Err != nil {
			t.Fatalf("%+v: %v", r.Spec, r.Err)
		}
		out = append(out, ToWire(r))
	}
	for _, err := range []error{
		fmt.Errorf("point: %w", core.ErrNoSolution),
		fmt.Errorf("sweep: %w", context.Canceled),
		fmt.Errorf("sweep: %w", context.DeadlineExceeded),
		fmt.Errorf("worker: %w", explore.ErrSolverPanic),
		errors.New(`bad "spec" <1> & 2`),
	} {
		out = append(out, ToWire(explore.Result{Index: len(out), Spec: specs[0], Err: err}))
	}
	return out
}

// TestWireDecodeMatchesEncodingJSON: the typed decoding of both wire
// bodies, compact as json.Marshal writes them and indented as older
// workers wrote replies, equals encoding/json's over real results of
// every technology provider, every error kind and the wire's edge
// values. Compact requests and replies in both layouts are what
// mixed-version peers send each other.
func TestWireDecodeMatchesEncodingJSON(t *testing.T) {
	solved := realWireResults(t)
	results := solved
	for _, r := range solved {
		results = append(results, wireEdges(r)...)
	}
	var specs []core.Spec
	for _, r := range results {
		specs = append(specs, r.Spec)
	}
	layouts := map[string]func(any) ([]byte, error){
		"compact":  json.Marshal,
		"indented": func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") },
	}
	for layout, marshal := range layouts {
		encode := func(v any) []byte {
			b, err := marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		for _, resp := range []BatchResponse{{Results: results}, {Results: results[:1]}, {Results: []WireResult{}}, {}} {
			checkAgrees(t, layout+" reply", encode(resp), DecodeBatchResponse, false, true)
		}
		for _, req := range []BatchRequest{{Specs: specs}, {Specs: specs[:1]}, {Specs: []core.Spec{}}, {}} {
			checkAgrees(t, layout+" request", encode(req), DecodeBatchRequest, true, true)
		}
	}
}

// TestWireDecodeRejects: bodies encoding/json rejects, and the
// typed decoder's own refusals, fail to decode.
func TestWireDecodeRejects(t *testing.T) {
	for _, body := range []string{
		``, `{`, `[]`, `5`, `{"results":[{"index":01}]}`, `{"x":-01}`, `{"results":[{"index":1.5}]}`,
		`{"results":[{"index":9223372036854775808}]}`, `{"results":[{"solution":{"area_m2":1e400}}]}`,
		`{"results":[{"error":"a` + "\x01" + `b"}]}`, `{"results":[1,]}`, `{"results":[]} x`,
		`{"results":[{"index":"1"}]}`, `{"results":[{"cached":1}]}`, `{"RESULTS":[]}`,
		`{"x":` + strings.Repeat("[", jsondec.MaxDepth) + strings.Repeat("]", jsondec.MaxDepth) + `}`,
	} {
		if _, err := DecodeBatchResponse([]byte(body)); err == nil {
			t.Errorf("reply %.60q decoded", body)
		}
	}
	for _, body := range []string{`{"specs":[],"results":[]}`, `{"specs":[{"Nodes":32}]}`, `{"specs":[{"node":32}]}`} {
		if _, err := DecodeBatchRequest([]byte(body)); err == nil {
			t.Errorf("request %q decoded", body)
		}
	}
	deep := `{"x":` + strings.Repeat("[", jsondec.MaxDepth-1) + strings.Repeat("]", jsondec.MaxDepth-1) + `}`
	checkAgrees(t, "nesting at the limit", []byte(deep), DecodeBatchResponse, false, true)
}

// FuzzWireDecode is a differential test of the typed decoder against
// encoding/json on arbitrary bytes, decoded as both wire bodies: it
// must not panic, must never accept a body encoding/json rejects, and
// must agree with encoding/json whenever both accept. (Both accepting
// implies every key was spelled exactly: a key matching a field only
// case-insensitively, which encoding/json folds, is rejected.)
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgrees(t, "request", data, DecodeBatchRequest, true, false)
		checkAgrees(t, "reply", data, DecodeBatchResponse, false, false)
	})
}

// BenchmarkWire times decoding one 16-point chunk of real results:
// the reply indented as older workers write it and compact as
// workers write it now, and the request, each with the typed decoder
// and with the encoding/json reference.
func BenchmarkWire(b *testing.B) {
	specs, _ := testGrid().Expand()
	specs = specs[:16]
	var results []WireResult
	for _, r := range explore.New(explore.Options{}).Sweep(context.Background(), specs) {
		results = append(results, ToWire(r))
	}
	req, _ := json.Marshal(BatchRequest{Specs: specs})
	compact, _ := json.Marshal(BatchResponse{Results: results})
	indented, _ := json.MarshalIndent(BatchResponse{Results: results}, "", "  ")
	indented = append(indented, '\n')
	cases := []struct {
		name  string
		body  []byte
		typed func([]byte) error
		ref   func([]byte) error
	}{
		{"reply-indented", indented,
			func(b []byte) error { _, err := DecodeBatchResponse(b); return err },
			func(b []byte) error { return referenceDecode(b, new(BatchResponse), false) }},
		{"reply-compact", compact,
			func(b []byte) error { _, err := DecodeBatchResponse(b); return err },
			func(b []byte) error { return referenceDecode(b, new(BatchResponse), false) }},
		{"request", req,
			func(b []byte) error { _, err := DecodeBatchRequest(b); return err },
			func(b []byte) error { return referenceDecode(b, new(BatchRequest), true) }},
	}
	for _, c := range cases {
		for _, dec := range []struct {
			name string
			fn   func([]byte) error
		}{{"typed", c.typed}, {"json", c.ref}} {
			b.Run(c.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(c.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := dec.fn(c.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestHTTPWorkerReusesConnections: after the first dispatch, every
// dispatch to a worker rides a pooled connection, one after another
// and in a wave of concurrent dispatches wider than net/http's
// default idle pool of 2 per host. The worker replies to 16-point
// chunks as older workers do: indented, with a trailing newline, and
// long enough to be sent chunked, so a reader that stops at the end
// of the JSON value leaves the body short of EOF.
func TestHTTPWorkerReusesConnections(t *testing.T) {
	const wave = 8
	var barrier atomic.Pointer[sync.WaitGroup]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := DecodeBatchRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if b := barrier.Load(); b != nil {
			// Hold every dispatch of a wave in flight at once, so the
			// wave needs as many connections as it has dispatches.
			b.Done()
			b.Wait()
		}
		out := BatchResponse{Results: make([]WireResult, len(req.Specs))}
		for i, s := range req.Specs {
			out.Results[i] = WireResult{Index: i, Spec: s}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	}))
	defer srv.Close()

	var dialed, reused atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Add(1)
			} else {
				dialed.Add(1)
			}
		},
	})
	w := NewHTTPWorker(srv.URL)
	dispatch := func() {
		if res, err := w.SolveBatch(ctx, fakeSpecs(16)); err != nil || len(res) != 16 {
			t.Errorf("dispatch: %d results, %v", len(res), err)
		}
	}
	runWave := func() {
		b := new(sync.WaitGroup)
		b.Add(wave)
		barrier.Store(b)
		defer barrier.Store(nil)
		var wg sync.WaitGroup
		for range wave {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dispatch()
			}()
		}
		wg.Wait()
	}

	for range 20 {
		dispatch()
	}
	if d := dialed.Load(); d != 1 {
		t.Fatalf("20 serial dispatches dialed %d connections, want 1", d)
	}
	runWave() // needs wave connections; the first wave dials the rest
	before := dialed.Load()
	for range 20 {
		dispatch()
	}
	runWave()
	if d := dialed.Load() - before; d != 0 {
		t.Fatalf("dispatches after a wave of %d dialed %d new connections, want 0 (reused %d)", wave, d, reused.Load())
	}
}

// TestHTTPWorkerErrorRepliesKeepConnections checks that a worker's
// error replies cost no connections either: do reads a non-200 body to
// EOF before it returns the error, so 20 serial dispatches to a worker
// that answers every one with a 503 share one connection. A do that
// returned on the status before reading and closing the body would
// dial once per dispatch.
func TestHTTPWorkerErrorRepliesKeepConnections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "worker draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var dialed atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dialed.Add(1)
			}
		},
	})
	w := NewHTTPWorker(srv.URL)
	for range 20 {
		if _, err := w.SolveBatch(ctx, fakeSpecs(16)); err == nil {
			t.Fatal("SolveBatch against a worker answering 503 returned no error")
		}
	}
	if d := dialed.Load(); d != 1 {
		t.Fatalf("20 serial dispatches answered with 503 dialed %d connections, want 1", d)
	}
}
