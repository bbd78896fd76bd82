package chaos

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Error("nil injector reports enabled")
	}
	if err := in.Inject(context.Background(), ExploreSolve); err != nil {
		t.Errorf("nil Inject = %v", err)
	}
	if in.ForceMiss(CacheLookup) {
		t.Error("nil ForceMiss fired")
	}
	if in.Snapshot() != nil {
		t.Error("nil Snapshot not nil")
	}
}

func TestUnarmedPointIsNoOp(t *testing.T) {
	in := New(1, Rule{Point: ExploreSolve, Fault: Cancel, Rate: 1})
	if err := in.Inject(context.Background(), ServeHandler); err != nil {
		t.Errorf("unarmed point injected: %v", err)
	}
	if got := in.Snapshot()[ServeHandler]; got.Armed != 0 {
		t.Errorf("unarmed point counted arms: %+v", got)
	}
}

func TestCancelWrapsCanceledAndErrInjected(t *testing.T) {
	in := New(7, Rule{Point: ExploreSolve, Fault: Cancel, Rate: 1})
	err := in.Inject(context.Background(), ExploreSolve)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not wrap context.Canceled", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v does not wrap ErrInjected", err)
	}
	st := in.Snapshot()[ExploreSolve]
	if st.Armed != 1 || st.Cancels != 1 || st.Fired() != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPanicCarriesPointAndArm(t *testing.T) {
	in := New(7, Rule{Point: ExploreWorker, Fault: Panic, Rate: 1})
	defer func() {
		v := recover()
		pv, ok := v.(PanicValue)
		if !ok || pv.Point != ExploreWorker || pv.Arm != 1 {
			t.Fatalf("recovered %#v", v)
		}
		if in.Snapshot()[ExploreWorker].Panics != 1 {
			t.Error("panic not counted")
		}
	}()
	in.Inject(context.Background(), ExploreWorker)
	t.Fatal("injected panic did not fire")
}

func TestLatencyDelaysAndHonorsContext(t *testing.T) {
	in := New(7, Rule{Point: ServeHandler, Fault: Latency, Rate: 1, Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := in.Inject(context.Background(), ServeHandler); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("latency injection slept only %v", d)
	}
	// A cancelled context cuts the sleep short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := in.Inject(ctx, ServeHandler); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-latency err = %v", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("cancelled latency still slept %v", d)
	}
	if got := in.Snapshot()[ServeHandler].Latencies; got != 2 {
		t.Errorf("latencies fired %d, want 2", got)
	}
}

func TestForceMissOnlyFiresMissRules(t *testing.T) {
	in := New(3,
		Rule{Point: CacheLookup, Fault: Miss, Rate: 1},
		Rule{Point: CacheLookup, Fault: Cancel, Rate: 1})
	if !in.ForceMiss(CacheLookup) {
		t.Fatal("miss rule at rate 1 did not fire")
	}
	st := in.Snapshot()[CacheLookup]
	if st.Misses != 1 || st.Cancels != 0 {
		t.Fatalf("ForceMiss fired non-miss rules: %+v", st)
	}
	// Inject, conversely, ignores Miss rules.
	if err := in.Inject(context.Background(), CacheLookup); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel rule did not fire via Inject: %v", err)
	}
	if in.Snapshot()[CacheLookup].Misses != 1 {
		t.Error("Inject fired a Miss rule")
	}
}

// TestDeterministicSchedule: the same seed and arm count produce the
// same fault schedule; a different seed produces a different one.
func TestDeterministicSchedule(t *testing.T) {
	const arms = 2048
	run := func(seed uint64) (fired int64, pattern []bool) {
		in := New(seed, Rule{Point: ExploreSolve, Fault: Cancel, Rate: 0.3})
		pattern = make([]bool, arms)
		for i := 0; i < arms; i++ {
			pattern[i] = in.Inject(context.Background(), ExploreSolve) != nil
		}
		return in.Snapshot()[ExploreSolve].Cancels, pattern
	}
	f1, p1 := run(42)
	f2, p2 := run(42)
	if f1 != f2 {
		t.Fatalf("same seed fired %d vs %d faults", f1, f2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at arm %d", i)
		}
	}
	// The empirical rate should be near 0.3.
	if r := float64(f1) / arms; r < 0.2 || r > 0.4 {
		t.Errorf("empirical rate %.3f far from 0.3", r)
	}
	f3, p3 := run(43)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same && f1 == f3 {
		t.Error("different seeds produced identical schedules")
	}
}

func TestRateZeroNeverFiresRateOneAlwaysFires(t *testing.T) {
	in := New(9,
		Rule{Point: ExploreWorker, Fault: Cancel, Rate: 0},
		Rule{Point: ExploreSolve, Fault: Cancel, Rate: 1})
	for i := 0; i < 100; i++ {
		if err := in.Inject(context.Background(), ExploreWorker); err != nil {
			t.Fatal("rate-0 rule fired")
		}
		if err := in.Inject(context.Background(), ExploreSolve); err == nil {
			t.Fatal("rate-1 rule missed")
		}
	}
}

// TestConcurrentArming: the counters stay consistent under -race and
// the total fired count is deterministic for a fixed arm count even
// when arms race (the multiset of decisions depends only on indices).
func TestConcurrentArming(t *testing.T) {
	const workers, perWorker = 8, 250
	run := func() int64 {
		in := New(11, Rule{Point: ServeAdmit, Fault: Cancel, Rate: 0.5})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					in.Inject(context.Background(), ServeAdmit)
				}
			}()
		}
		wg.Wait()
		st := in.Snapshot()[ServeAdmit]
		if st.Armed != workers*perWorker {
			t.Errorf("armed %d, want %d", st.Armed, workers*perWorker)
		}
		return st.Cancels
	}
	if a, b := run(), run(); a != b {
		t.Errorf("concurrent schedules fired %d vs %d faults", a, b)
	}
}

// TestPointsCatalog checks that Points() lists every declared
// injection point exactly once. The Point constants are read from the
// package source, so a point declared without a catalog entry fails
// here; every catalog entry must in turn arm and fire in cactid-serve's
// TestChaosServerNoUnexpected5xx.
func TestPointsCatalog(t *testing.T) {
	pts := Points()
	if len(pts) != 10 {
		t.Fatalf("catalog has %d points", len(pts))
	}
	seen := map[Point]bool{}
	for _, p := range pts {
		if p == "" || seen[p] {
			t.Fatalf("bad catalog entry %q", p)
		}
		seen[p] = true
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Point" {
					continue
				}
				for i, id := range vs.Names {
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok {
						t.Fatalf("%s: Point %s is not a string literal", fset.Position(id.Pos()), id.Name)
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					declared++
					if !seen[Point(v)] {
						t.Errorf("%s: Point %s = %q is missing from Points()", fset.Position(id.Pos()), id.Name, v)
					}
				}
			}
		}
	}
	if declared != len(pts) {
		t.Errorf("parsed %d `Name Point = \"value\"` constants, catalog has %d points", declared, len(pts))
	}
}

func TestFaultStrings(t *testing.T) {
	for f, want := range map[Fault]string{Cancel: "cancel", Latency: "latency", Panic: "panic", Miss: "miss"} {
		if f.String() != want {
			t.Errorf("Fault(%d).String() = %q, want %q", f, f, want)
		}
	}
}
