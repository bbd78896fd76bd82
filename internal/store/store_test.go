package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cactid/internal/chaos"
	"cactid/internal/core"
	"cactid/internal/tech"
)

func openT(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(context.Background(), key, val); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	val, ok, err := s.Get(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("Get(%q) = ok=%v err=%v, want hit", key, ok, err)
	}
	return val
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	mustPut(t, s, "alpha", []byte("one"))
	mustPut(t, s, "beta", []byte("two"))
	if got := mustGet(t, s, "alpha"); string(got) != "one" {
		t.Fatalf("alpha = %q", got)
	}
	if _, ok, err := s.Get(context.Background(), "gamma"); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	// Last write wins.
	mustPut(t, s, "alpha", []byte("uno"))
	if got := mustGet(t, s, "alpha"); string(got) != "uno" {
		t.Fatalf("alpha after overwrite = %q", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestReopenRecoversAll(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%d", i*i)
		mustPut(t, s, k, []byte(v))
		want[k] = v
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put(context.Background(), "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	r := openT(t, Config{Dir: dir})
	for k, v := range want {
		if got := mustGet(t, r, k); string(got) != v {
			t.Fatalf("%s = %q, want %q", k, got, v)
		}
	}
	st := r.Stats()
	if st.Keys != 50 {
		t.Fatalf("Keys = %d, want 50", st.Keys)
	}
	// Recovery replays the whole log on every Open.
	if st.RecoveredRecords != 50 {
		t.Fatalf("RecoveredRecords = %d, want 50", st.RecoveredRecords)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir, SegmentBytes: 256})
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), val)
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want several after rotation", st.Segments)
	}
	for i := 0; i < 20; i++ {
		mustGet(t, s, fmt.Sprintf("k%02d", i)) // old segments stay readable
	}
	s.Close()

	r := openT(t, Config{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		if got := mustGet(t, r, fmt.Sprintf("k%02d", i)); !bytes.Equal(got, val) {
			t.Fatalf("k%02d corrupted after reopen", i)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	mustPut(t, s, "good", []byte("payload"))
	s.Close()

	// Simulate a crash mid-append: a partial record at the tail.
	seg := filepath.Join(dir, "seg-00000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := encodeRecord("torn-key", []byte("torn-value"))[:17]
	f.Write(torn)
	f.Close()

	r := openT(t, Config{Dir: dir})
	if got := mustGet(t, r, "good"); string(got) != "payload" {
		t.Fatalf("good = %q", got)
	}
	st := r.Stats()
	if st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(torn))
	}
	// The torn bytes are physically gone: appends continue cleanly.
	mustPut(t, r, "after", []byte("crash"))
	r.Close()
	r2 := openT(t, Config{Dir: dir})
	if got := mustGet(t, r2, "after"); string(got) != "crash" {
		t.Fatalf("after = %q", got)
	}
}

func TestBadChecksumRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	mustPut(t, s, "first", []byte("aaaa"))
	mustPut(t, s, "second", []byte("bbbb"))
	mustPut(t, s, "third", []byte("cccc"))
	s.Close()

	// Flip a payload byte of the middle record; its frame stays
	// plausible so recovery must skip it and still find "third".
	seg := filepath.Join(dir, "seg-00000001.log")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(buf, []byte("bbbb"))
	if i < 0 {
		t.Fatal("test setup: payload not found")
	}
	buf[i] ^= 0xff
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Config{Dir: dir})
	if _, ok, _ := r.Get(context.Background(), "second"); ok {
		t.Fatal("corrupt record was served")
	}
	if got := mustGet(t, r, "first"); string(got) != "aaaa" {
		t.Fatalf("first = %q", got)
	}
	if got := mustGet(t, r, "third"); string(got) != "cccc" {
		t.Fatalf("third = %q", got)
	}
	if st := r.Stats(); st.SkippedRecords != 1 {
		t.Fatalf("SkippedRecords = %d, want 1", st.SkippedRecords)
	}
}

// TestLeftoverIndexFilesIgnored: directories written before recovery
// became a pure log scan may hold an "index" snapshot (intact or with
// a broken CRC) and an "index.tmp". Open must ignore both and serve
// every record byte-for-byte from the segments.
func TestLeftoverIndexFilesIgnored(t *testing.T) {
	for _, name := range []string{"valid", "crc-broken"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, Config{Dir: dir, SegmentBytes: 256})
			want := map[string][]byte{}
			for i := 0; i < 12; i++ {
				k := fmt.Sprintf("key-%02d", i)
				want[k] = bytes.Repeat([]byte{byte('a' + i)}, 40+i)
				mustPut(t, s, k, want[k])
			}
			want["key-03"] = []byte("rewritten")
			mustPut(t, s, "key-03", want["key-03"])
			s.Close()

			// The old snapshot layout: magic, frontier segment and
			// offset, key count, then a trailing CRC32 over the rest.
			// This one claims to cover the whole log yet lists no keys,
			// so a reader that trusted it would serve nothing.
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
			if err != nil || len(segs) < 2 {
				t.Fatalf("segments = %v (%v), want several", segs, err)
			}
			fi, err := os.Stat(segs[len(segs)-1])
			if err != nil {
				t.Fatal(err)
			}
			idx := []byte("CDIDX001")
			idx = binary.LittleEndian.AppendUint32(idx, uint32(len(segs)))
			idx = binary.LittleEndian.AppendUint64(idx, uint64(fi.Size()))
			idx = binary.LittleEndian.AppendUint32(idx, 0)
			idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(idx))
			if name == "crc-broken" {
				idx[len(idx)-1] ^= 0xff
			}
			if err := os.WriteFile(filepath.Join(dir, "index"), idx, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "index.tmp"), idx[:len(idx)/2], 0o644); err != nil {
				t.Fatal(err)
			}

			r := openT(t, Config{Dir: dir, SegmentBytes: 256})
			if r.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(want))
			}
			for k, v := range want {
				if got := mustGet(t, r, k); !bytes.Equal(got, v) {
					t.Fatalf("%s = %q, want %q", k, got, v)
				}
			}
			if st := r.Stats(); st.RecoveredRecords != 13 || st.SkippedRecords != 0 || st.TruncatedBytes != 0 {
				t.Fatalf("recovery stats = %+v, want 13 recovered, nothing skipped or truncated", st)
			}
		})
	}
}

func TestGetVerifiesChecksumOnRead(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	mustPut(t, s, "target", []byte("pristine"))
	// Corrupt the record on disk under the open store's feet.
	seg := filepath.Join(dir, "seg-00000001.log")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(buf, []byte("pristine"))
	buf[i] ^= 0x01
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(context.Background(), "target"); ok {
		t.Fatal("Get served a record that fails its checksum")
	}
	if st := s.Stats(); st.CorruptReads != 1 {
		t.Fatalf("CorruptReads = %d, want 1", st.CorruptReads)
	}
}

func TestKeysPrefix(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	mustPut(t, s, "s:1:aaa", nil)
	mustPut(t, s, "s:1:bbb", nil)
	mustPut(t, s, "j:job1", nil)
	got := s.Keys("s:1:")
	if want := []string{"s:1:aaa", "s:1:bbb"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if n := len(s.Keys("")); n != 3 {
		t.Fatalf("all keys = %d, want 3", n)
	}
}

func TestPutBounds(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	if err := s.Put(context.Background(), "", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(context.Background(), string(bytes.Repeat([]byte("k"), maxKeyLen+1)), nil); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestChaosFaults(t *testing.T) {
	inj := chaos.New(42,
		chaos.Rule{Point: chaos.StoreGet, Fault: chaos.Cancel, Rate: 1},
		chaos.Rule{Point: chaos.StorePut, Fault: chaos.Cancel, Rate: 1},
		chaos.Rule{Point: chaos.StoreRecover, Fault: chaos.Cancel, Rate: 1},
	)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Chaos: inj})
	if err != nil {
		t.Fatalf("Open with recover fault must still succeed: %v", err)
	}
	defer s.Close()
	if err := s.Put(context.Background(), "k", []byte("v")); err == nil {
		t.Fatal("injected put fault not surfaced")
	}
	if _, ok, err := s.Get(context.Background(), "k"); ok || err == nil {
		t.Fatalf("injected get fault: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.RecoverFaults != 1 || st.PutFaults != 1 || st.GetFaults != 1 {
		t.Fatalf("fault counters = %+v", st)
	}
	if st.Keys != 0 {
		t.Fatal("dropped write still visible")
	}
}

func TestChaosForcedMiss(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	mustPut(t, s, "k", []byte("v"))
	s.Close()
	inj := chaos.New(7, chaos.Rule{Point: chaos.StoreGet, Fault: chaos.Miss, Rate: 1})
	r := openT(t, Config{Dir: dir, Chaos: inj})
	if _, ok, err := r.Get(context.Background(), "k"); ok || err != nil {
		t.Fatalf("forced miss: ok=%v err=%v", ok, err)
	}
}

func solvedSolution() *core.Solution {
	spec := core.Spec{
		Node: tech.Node65, RAM: tech.SRAM, CapacityBytes: 64 << 10,
		BlockBytes: 64, Associativity: 4, Banks: 1,
		IsCache: true, Mode: core.Normal,
	}
	c, err := spec.Canonical()
	if err != nil {
		panic(err)
	}
	sol, err := core.Optimize(c)
	if err != nil {
		panic(err)
	}
	return sol
}

func TestSolutionsRoundTrip(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	tier := NewSolutions(s)
	ctx := context.Background()

	sol := solvedSolution()
	fp, err := sol.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	tier.Save(ctx, fp, sol, nil)
	hit, ok := tier.Lookup(ctx, fp)
	if !ok || hit.Err != nil || hit.Solution == nil {
		t.Fatalf("Lookup = %+v ok=%v", hit, ok)
	}
	got := hit.Solution
	if got.AccessTime != sol.AccessTime || got.EReadPerAccess != sol.EReadPerAccess ||
		got.LeakagePower != sol.LeakagePower || got.AreaEff != sol.AreaEff {
		t.Fatalf("scalar drift: got %+v", got)
	}
	if got.Data.Org != sol.Data.Org || got.Data.PipelineStages != sol.Data.PipelineStages {
		t.Fatalf("data org drift: %v vs %v", got.Data.Org, sol.Data.Org)
	}
	if (got.Tag == nil) != (sol.Tag == nil) || (got.Tag != nil && got.Tag.Org != sol.Tag.Org) {
		t.Fatal("tag org drift")
	}
	if !reflect.DeepEqual(got.Spec, sol.Spec) {
		t.Fatalf("spec drift:\n got %+v\nwant %+v", got.Spec, sol.Spec)
	}
}

func TestSolutionsNoSolutionRoundTrip(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	tier := NewSolutions(s)
	ctx := context.Background()

	tier.Save(ctx, "fp-nosol", nil, core.ErrNoSolution)
	hit, ok := tier.Lookup(ctx, "fp-nosol")
	if !ok || hit.Solution != nil {
		t.Fatalf("Lookup = %+v ok=%v", hit, ok)
	}
	if !errors.Is(hit.Err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", hit.Err)
	}
	if hit.Err.Error() != core.ErrNoSolution.Error() {
		t.Fatalf("error text drift: %q", hit.Err.Error())
	}

	wrapped := fmt.Errorf("point 3: %w", core.ErrNoSolution)
	tier.Save(ctx, "fp-wrapped", nil, wrapped)
	hit, ok = tier.Lookup(ctx, "fp-wrapped")
	if !ok || !errors.Is(hit.Err, core.ErrNoSolution) || hit.Err.Error() != wrapped.Error() {
		t.Fatalf("wrapped round trip: %+v ok=%v", hit, ok)
	}
}

func TestSolutionsRejectsImpureOutcomes(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	tier := NewSolutions(s)
	ctx := context.Background()
	tier.Save(ctx, "fp-cancel", nil, context.Canceled)
	tier.Save(ctx, "fp-deadline", nil, context.DeadlineExceeded)
	tier.Save(ctx, "fp-nil-sol", nil, nil)
	if s.Len() != 0 {
		t.Fatalf("impure outcomes persisted: %v", s.Keys(""))
	}
	if _, ok := tier.Lookup(ctx, "fp-cancel"); ok {
		t.Fatal("impure outcome served")
	}
}

func TestSolutionsModelVersionMismatch(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	tier := NewSolutions(s)
	ctx := context.Background()
	// A record written under a different model version must miss.
	stale := fmt.Sprintf(`{"model_version":%d,"no_solution":true}`, core.ModelVersion+1)
	mustPut(t, s, solutionKey("fp-stale"), []byte(stale))
	if _, ok := tier.Lookup(ctx, "fp-stale"); ok {
		t.Fatal("stale model version served")
	}

	// The pre-provider format (version 1, before the technology axis
	// and the write metrics existed): even a well-formed old record
	// under the current key must be rejected by the payload check, and
	// a record under its own version-1 key namespace must be plain
	// unreachable — Lookup keys by the current ModelVersion.
	v1Payload := fmt.Sprintf(`{"model_version":%d,"no_solution":true}`, core.ModelVersion-1)
	mustPut(t, s, solutionKey("fp-v1-payload"), []byte(v1Payload))
	if _, ok := tier.Lookup(ctx, "fp-v1-payload"); ok {
		t.Fatal("version-1 payload served under a current key")
	}
	v1Key := fmt.Sprintf("s:%d:fp-v1-keyed", core.ModelVersion-1)
	mustPut(t, s, v1Key, []byte(v1Payload))
	if _, ok := tier.Lookup(ctx, "fp-v1-keyed"); ok {
		t.Fatal("version-1-keyed record reachable through the current namespace")
	}
}

// TestSolutionsRejectsUnrenderableRecord: a current-version solution
// record without a spec or a data organization cannot be rebuilt into
// a renderable solution, so Lookup counts it as a corrupt read and
// misses instead of serving it.
func TestSolutionsRejectsUnrenderableRecord(t *testing.T) {
	s := openT(t, Config{Dir: t.TempDir()})
	tier := NewSolutions(s)
	org := `{"Rows":64,"Cols":128,"Mux":4,"MatsPerSubbank":2,"Subbanks":1,"Mats":2}`
	for fp, val := range map[string]string{
		"fp-no-org":  fmt.Sprintf(`{"model_version":%d,"spec":{"Node":32,"CapacityBytes":65536},"access_time_s":1e-9}`, core.ModelVersion),
		"fp-no-spec": fmt.Sprintf(`{"model_version":%d,"access_time_s":1e-9,"data_org":%s}`, core.ModelVersion, org),
	} {
		mustPut(t, s, solutionKey(fp), []byte(val))
		if hit, ok := tier.Lookup(context.Background(), fp); ok {
			t.Fatalf("%s served: %+v", fp, hit)
		}
	}
	if n := s.Stats().CorruptReads; n != 2 {
		t.Fatalf("corrupt reads = %d, want 2", n)
	}
}

// BenchmarkSolutions times the durable tier's codec on real
// solutions: a 1 MB cache and a 1 MB plain memory on every technology
// provider. Get is the store read of a record alone; Lookup reads,
// decodes a record and rebuilds its solution, so Lookup minus Get is
// the codec's share; Save encodes one and appends it to the log.
func BenchmarkSolutions(b *testing.B) {
	ctx := context.Background()
	var sols []*core.Solution
	var fps []string
	for _, p := range tech.Providers() {
		for _, cache := range []bool{true, false} {
			sol, err := core.Optimize(core.Spec{Technology: p, Node: tech.Node32,
				CapacityBytes: 1 << 20, BlockBytes: 64, Associativity: 8, IsCache: cache})
			if err != nil {
				b.Fatal(err)
			}
			fp, err := sol.Spec.Fingerprint()
			if err != nil {
				b.Fatal(err)
			}
			sols, fps = append(sols, sol), append(fps, fp)
		}
	}
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tier := NewSolutions(s)
	for i, sol := range sols {
		tier.Save(ctx, fps[i], sol, nil)
	}
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := s.Get(ctx, solutionKey(fps[i%len(fps)])); !ok || err != nil {
				b.Fatalf("stored record missed: %v", err)
			}
		}
	})
	b.Run("Lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := tier.Lookup(ctx, fps[i%len(fps)]); !ok {
				b.Fatal("stored solution missed")
			}
		}
	})
	b.Run("Save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(sols)
			tier.Save(ctx, fps[k], sols[k], nil)
		}
	})
}

func TestParseRecordRejectsFrameLies(t *testing.T) {
	rec := encodeRecord("key", []byte("value"))
	if _, _, ok := parseRecord(rec); !ok {
		t.Fatal("valid record rejected")
	}
	short := rec[:len(rec)-1]
	if _, _, ok := parseRecord(short); ok {
		t.Fatal("truncated record accepted")
	}
	bad := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(bad[0:], uint32(len(rec))) // keyLen lies
	if _, _, ok := parseRecord(bad); ok {
		t.Fatal("lying frame accepted")
	}
}
