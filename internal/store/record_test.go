package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// checkRecordAgrees compares decodeRecord's decoding of data with
// json.Unmarshal's, down to the sign of a zero, which
// reflect.DeepEqual's == does not see. When required, both must
// accept; otherwise only decodeRecord accepting what json.Unmarshal
// rejects, or a disagreement where both accept, is a failure.
func checkRecordAgrees(t *testing.T, what string, data []byte, required bool) {
	t.Helper()
	got, err := decodeRecord(data)
	var want solutionRecord
	wantErr := json.Unmarshal(data, &want)
	switch {
	case required && (err != nil || wantErr != nil):
		t.Fatalf("%s: typed decoder error %v, encoding/json error %v\n%s", what, err, wantErr, data)
	case err == nil && wantErr != nil:
		t.Fatalf("%s: typed decoder accepts what encoding/json rejects (%v)\n%q", what, wantErr, data)
	case err != nil:
		return
	}
	g, gErr := json.Marshal(got)
	w, wErr := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || gErr != nil || wErr != nil || !bytes.Equal(g, w) {
		t.Fatalf("%s: decodings differ\n got %+v\nwant %+v\n%q", what, got, want, data)
	}
}

// savedRecords returns the records Save writes for a 1 MB cache and a
// 1 MB plain memory on every technology provider, and for a
// no-solution verdict whose error text needs escapes and holds
// non-ASCII bytes.
func savedRecords(t *testing.T) [][]byte {
	t.Helper()
	ctx := context.Background()
	st := openT(t, Config{Dir: t.TempDir()})
	tier := NewSolutions(st)
	var fps []string
	for _, p := range tech.Providers() {
		for _, cache := range []bool{true, false} {
			sol, err := core.Optimize(core.Spec{Technology: p, Node: tech.Node32,
				CapacityBytes: 1 << 20, BlockBytes: 64, Associativity: 8, IsCache: cache})
			if err != nil {
				t.Fatal(err)
			}
			fp, err := sol.Spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			tier.Save(ctx, fp, sol, nil)
			fps = append(fps, fp)
		}
	}
	tier.Save(ctx, "fp-nosol", nil, fmt.Errorf("point \"7\" <a&b>\t\\ café 漢字   \xff: %w", core.ErrNoSolution))
	fps = append(fps, "fp-nosol")
	var out [][]byte
	for _, fp := range fps {
		out = append(out, mustGet(t, st, solutionKey(fp)))
	}
	return out
}

// recordEdges returns the record of sol stretched over the float
// edges of the encoding: signed zeros, subnormals, and the values on
// either side of the points where encoding/json switches between
// plain and exponent notation (1e-6 and 1e21), in every metric and
// every float of the spec.
func recordEdges(t *testing.T, sol *core.Solution) [][]byte {
	t.Helper()
	floats := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1023, math.Nextafter(0x1p-1022, 0),
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21, math.MaxFloat64,
	}
	var out [][]byte
	for i, f := range floats {
		spec := sol.Spec
		spec.MaxAreaConstraint, spec.MaxAcctimeConstraint, spec.MaxRepeaterSlack = f, -f, f
		spec.Weights = &core.Weights{DynamicEnergy: f, LeakagePower: -f, RandomCycle: f, InterleaveCycle: 1}
		rec := solutionRecord{ModelVersion: core.ModelVersion, Projection: sol.Projection()}
		p := &rec.Projection
		p.Spec = &spec
		p.AccessTime, p.RandomCycle, p.InterleaveCycle, p.Area = f, f, -f, f
		p.BankArea, p.AreaEff, p.EReadPerAccess, p.EWritePerAccess = f, f, f, f
		p.LeakagePower, p.RefreshPower, p.WriteTime, p.WriteEndurance = f, f, f, f
		p.DataPipelineStages = -i
		if i%2 == 0 {
			p.TagOrg = nil
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestRecordDecodeMatchesEncodingJSON: the typed decoding of tier-1
// records, compact as Save writes them and indented, equals
// json.Unmarshal's over the records of real solutions of every
// technology provider, a no-solution verdict and the float edges.
func TestRecordDecodeMatchesEncodingJSON(t *testing.T) {
	records := savedRecords(t)
	records = append(records, recordEdges(t, solvedSolution())...)
	for i, rec := range records {
		var indented bytes.Buffer
		if err := json.Indent(&indented, rec, "", "  "); err != nil {
			t.Fatal(err)
		}
		checkRecordAgrees(t, fmt.Sprintf("record %d compact", i), rec, true)
		checkRecordAgrees(t, fmt.Sprintf("record %d indented", i), indented.Bytes(), true)
	}
}

// FuzzRecordDecode is a differential test of decodeRecord against
// json.Unmarshal on arbitrary bytes: it must not panic, must never
// accept a record encoding/json rejects, and must agree with it
// whenever both accept. The corpus is seeded with the solution
// records of cactid-serve's testdata/store-v2, a store written before
// the typed decoder read it.
func FuzzRecordDecode(f *testing.F) {
	dir := f.TempDir()
	seg, err := os.ReadFile("../../cmd/cactid-serve/testdata/store-v2/seg-00000001.log")
	if err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), seg, 0o644); err != nil {
		f.Fatal(err)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for _, key := range s.Keys("s:") {
		val, ok, err := s.Get(context.Background(), key)
		if !ok || err != nil {
			f.Fatalf("store-v2 record %s: ok %v, %v", key, ok, err)
		}
		f.Add(val)
	}
	s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecordAgrees(t, "record", data, false)
	})
}
