package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/spectest"
	"cactid/internal/store"
	"cactid/internal/tech"
)

func renderResult(t *testing.T, r explore.Result) []byte {
	t.Helper()
	b, err := explore.AppendResultJSON(nil, r, "", "")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProjectionRoundTripGenerated: every point of 1,000 generated
// specs with distinct fingerprints reaches a caller as the same value
// whichever way it came — the tier-0 result, the result through the
// fabric wire (ToWire, json.Marshal, the typed decoder, FromWire) and
// the result through the durable store (Save, then Lookup) — and
// renders to the same bytes as the full design core.Optimize returns.
// Fingerprint rejects a spec holding a NaN or infinite float, so the
// wire can carry every point collected.
func TestProjectionRoundTripGenerated(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(5, 21))
	seen := map[string]bool{}
	var specs []core.Spec
	for len(specs) < 1000 {
		s := spectest.Spec(r)
		fp, err := s.Fingerprint()
		if err != nil || seen[fp] {
			continue
		}
		seen[fp] = true
		specs = append(specs, s)
	}
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tier := store.NewSolutions(st)

	var resp BatchResponse
	results := explore.New(explore.Options{}).Sweep(ctx, specs)
	for _, r := range results {
		w := ToWire(r)
		if _, err := json.Marshal(w); err != nil {
			t.Fatalf("%+v: the wire cannot encode the point: %v", r.Spec, err)
		}
		resp.Results = append(resp.Results, w)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := DecodeBatchResponse(body)
	if err != nil {
		t.Fatal(err)
	}

	verdicts := 0
	for i, r := range results {
		if r.Err != nil && !errors.Is(r.Err, core.ErrNoSolution) {
			t.Fatalf("%+v: %v", r.Spec, r.Err)
		}
		if r.Err != nil {
			verdicts++
		}
		viaWire := FromWire(wire.Results[i])
		tier.Save(ctx, r.Fingerprint, r.Solution, r.Err)
		hit, ok := tier.Lookup(ctx, r.Fingerprint)
		if !ok {
			t.Fatalf("%+v: not stored", r.Spec)
		}
		viaStore := r
		viaStore.Solution, viaStore.Err = hit.Solution, hit.Err
		full := r
		full.Solution, full.Err = core.Optimize(r.Spec)
		want := renderResult(t, full)
		if b := renderResult(t, r); !bytes.Equal(b, want) {
			t.Fatalf("%+v: the tier-0 result renders\n%s\nnot\n%s", r.Spec, b, want)
		}
		for name, got := range map[string]explore.Result{"wire": viaWire, "store": viaStore} {
			if !reflect.DeepEqual(got.Solution, r.Solution) {
				t.Fatalf("%+v: the %s solution differs from tier 0's:\n got %+v\nwant %+v", r.Spec, name, got.Solution, r.Solution)
			}
			if b := renderResult(t, got); !bytes.Equal(b, want) {
				t.Fatalf("%+v: through the %s it renders\n%s\nnot\n%s", r.Spec, name, b, want)
			}
		}
	}
	t.Logf("%d points, %d without a solution", len(results), verdicts)
	if verdicts == len(results) {
		t.Fatal("no generated spec solved")
	}
}

// TestFromWireRejectsMalformedSolution: a reply solution without a
// spec or a data organization cannot be rendered, so it becomes that
// point's error, of kind other, and the rest of the reply is kept.
func TestFromWireRejectsMalformedSolution(t *testing.T) {
	org := `{"Rows":64,"Cols":128,"Mux":4,"MatsPerSubbank":2,"Subbanks":1,"Mats":2}`
	body := `{"results":[
		{"index":0,"spec":{"Node":32},"solution":{"spec":{"Node":32,"CapacityBytes":65536},"access_time_s":1e-9}},
		{"index":1,"spec":{"Node":32},"solution":{"access_time_s":1e-9,"data_org":` + org + `}},
		{"index":2,"spec":{"Node":32},"solution":{"spec":null,"data_org":null,"tag_org":` + org + `}},
		{"index":3,"spec":{"Node":32},"solution":{}},
		{"index":4,"spec":{"Node":32},"solution":{"spec":{"Node":32,"CapacityBytes":65536},"data_org":` + org + `}}
	]}`
	resp, err := DecodeBatchResponse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range resp.Results {
		r := FromWire(w)
		out := renderResult(t, r)
		if i == len(resp.Results)-1 {
			if r.Err != nil || r.Solution == nil {
				t.Fatalf("well-formed solution: %v", r.Err)
			}
			continue
		}
		var we *wireError
		if r.Solution != nil || !errors.As(r.Err, &we) || we.kind != errKindOther {
			t.Fatalf("point %d: solution %v, error %#v; want an error of kind other", i, r.Solution, r.Err)
		}
		if !strings.Contains(r.Err.Error(), "no spec or no data organization") || !bytes.Contains(out, []byte(`"error"`)) {
			t.Fatalf("point %d renders %s", i, out)
		}
		if back := ToWire(r); back.ErrorKind != errKindOther {
			t.Fatalf("point %d re-sent with error kind %q", i, back.ErrorKind)
		}
	}
}

// parentWireSpecs are the specs of testdata/wire-v2/request.json: a
// 64 KB cache on every technology provider, a plain LP-DRAM memory, a
// spec with no solution and an invalid one.
func parentWireSpecs() []core.Spec {
	var specs []core.Spec
	for i, p := range []string{"itrs", "itrs-sram", "itrs-lpdram", "itrs-commdram", "stt-ram", "pcm", "gain-cell"} {
		specs = append(specs, core.Spec{Technology: p, Node: tech.Node32, IsCache: true, Mode: core.AccessMode(i % 3),
			CapacityBytes: 64 << 10, BlockBytes: 64, Associativity: 4, MaxPipelineStages: 6})
	}
	return append(specs,
		core.Spec{Node: tech.Node45, RAM: tech.LPDRAM, CapacityBytes: 1 << 20, BlockBytes: 64},
		core.Spec{Node: tech.Node32, RAM: tech.COMMDRAM, CapacityBytes: 1 << 20, BlockBytes: 64, PageBits: 7},
		core.Spec{RAM: tech.SRAM, CapacityBytes: -1, BlockBytes: 64},
	)
}

// TestWireDecodesParentBodies decodes testdata/wire-v2, bodies written
// by the code before core.Projection replaced WireSolution: a
// coordinator's json.Marshal of a BatchRequest of parentWireSpecs,
// and a worker's json.Marshal of the BatchResponse for them (ToWire
// of a fresh engine's sweep) followed by a canceled, a deadline and a
// panic result. Their solutions carry every metric, zero or not, and
// the tag's pipeline stages. The request decodes to its specs, and
// every reply result, through FromWire, renders as the same point
// solved today does (the full core.Optimize design) and keeps its
// errors.Is identity.
func TestWireDecodesParentBodies(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile("testdata/wire-v2/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	specs := parentWireSpecs()
	req, err := DecodeBatchRequest(read("request.json"))
	if err != nil || !reflect.DeepEqual(req.Specs, specs) {
		t.Fatalf("request decodes to %+v (%v), want %+v", req.Specs, err, specs)
	}
	reply, err := DecodeBatchResponse(read("reply.json"))
	if err != nil {
		t.Fatal(err)
	}

	want := explore.New(explore.Options{}).Sweep(context.Background(), specs)
	for i := range want {
		if want[i].Err == nil {
			want[i].Solution, _ = core.Optimize(specs[i])
		}
	}
	for _, err := range []error{
		fmt.Errorf("sweep: %w", context.Canceled),
		fmt.Errorf("sweep: %w", context.DeadlineExceeded),
		fmt.Errorf("%w: injected", explore.ErrSolverPanic),
	} {
		want = append(want, explore.Result{Index: len(want), Spec: specs[0], Err: err})
	}
	if len(reply.Results) != len(want) {
		t.Fatalf("reply carries %d results, want %d", len(reply.Results), len(want))
	}
	sentinels := []error{core.ErrNoSolution, context.Canceled, context.DeadlineExceeded, explore.ErrSolverPanic}
	kinds := map[string]bool{}
	for i, w := range reply.Results {
		kinds[w.ErrorKind] = true
		got := FromWire(w)
		if b, wb := renderResult(t, got), renderResult(t, want[i]); !bytes.Equal(b, wb) {
			t.Errorf("result %d renders\n%s\nsolved today\n%s", i, b, wb)
		}
		if w.ErrorKind != errKind(want[i].Err) && want[i].Err != nil {
			t.Errorf("result %d has error kind %q, want %q", i, w.ErrorKind, errKind(want[i].Err))
		}
		for _, s := range sentinels {
			if errors.Is(got.Err, s) != errors.Is(want[i].Err, s) {
				t.Errorf("result %d: errors.Is(%v, %v) = %v across the wire", i, got.Err, s, errors.Is(got.Err, s))
			}
		}
	}
	for _, k := range []string{"", errKindNoSolution, errKindCanceled, errKindDeadline, errKindPanic, errKindOther} {
		if !kinds[k] {
			t.Errorf("the fixture carries no result of error kind %q", k)
		}
	}
}
