package explore

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// TestSolvePinnedTechOutput pins the first published numbers of the
// non-ITRS providers to 7 significant digits, the same determinism
// discipline as TestSolvePinnedOutput: any model change must move
// these constants in the same commit, alongside core.ModelVersion.
func TestSolvePinnedTechOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	e := New(Options{})
	base := core.Spec{Node: tech.Node32, CapacityBytes: 4 << 20,
		BlockBytes: 64, Associativity: 8, Banks: 1, IsCache: true,
		MaxPipelineStages: 6}
	pins := []struct {
		name string
		want map[string]float64
	}{
		{
			name: "stt-ram",
			want: map[string]float64{
				"AccessTime":     1.069671e-09,
				"RandomCycle":    1.872195e-10,
				"Area":           2.420787e-06,
				"EReadPerAccess": 2.737538e-10,
				"LeakagePower":   1.656968e-01,
				"WriteTime":      1.106967e-08,
				"WriteEndurance": 4.000000e+12,
			},
		},
		{
			name: "gain-cell",
			want: map[string]float64{
				"AccessTime":     1.120017e-09,
				"RandomCycle":    1.966272e-10,
				"Area":           2.498597e-06,
				"EReadPerAccess": 2.787489e-10,
				"LeakagePower":   1.502141e-01,
				"RefreshPower":   3.339461e-03,
			},
		},
	}
	const relTol = 1e-5 // the pins carry 7 significant digits
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			spec := base
			spec.Technology = p.name
			sol, _, err := e.Solve(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]float64{
				"AccessTime":     sol.AccessTime,
				"RandomCycle":    sol.RandomCycle,
				"Area":           sol.Area,
				"EReadPerAccess": sol.EReadPerAccess,
				"LeakagePower":   sol.LeakagePower,
				"WriteTime":      sol.WriteTime,
				"WriteEndurance": sol.WriteEndurance,
				"RefreshPower":   sol.RefreshPower,
			}
			for name, want := range p.want {
				if math.Abs(got[name]-want) > relTol*math.Abs(want) {
					t.Errorf("%s = %.6e, pinned %.6e", name, got[name], want)
				}
			}
		})
	}
}

// Asking for the default provider by any of its names must be
// indistinguishable from not asking at all: same canonical spec, same
// fingerprint — so pre-provider store records and goldens keep
// resolving.
func TestDefaultTechnologySpellingsCanonicalize(t *testing.T) {
	plain := core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10,
		BlockBytes: 64, Associativity: 4, IsCache: true}
	want, err := plain.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"itrs", "ITRS", "default", " itrs "} {
		spec := plain
		spec.Technology = name
		got, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if got != want {
			t.Errorf("Technology=%q fingerprint %s differs from default %s", name, got, want)
		}
	}

	// Non-default providers must fold into the fingerprint: the same
	// geometry under two technologies is two distinct designs.
	stt := plain
	stt.Technology = "stt-ram"
	if got, err := stt.Fingerprint(); err != nil || got == want {
		t.Errorf("stt-ram fingerprint did not diverge from default (err=%v)", err)
	}
}

// TestSweepTechnologyAxis drives a grid across three providers and
// checks the axis accounting, the outermost-axis expansion order, and
// that every point solves with its provider's signature metrics.
func TestSweepTechnologyAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	g := Grid{
		Base: core.Spec{Node: tech.Node32, RAM: tech.SRAM, IsCache: true,
			MaxPipelineStages: 6},
		Techs:      []string{"itrs-sram", "stt-ram", "gain-cell"},
		Capacities: []int64{64 << 10, 128 << 10},
		Assocs:     []int{4},
		Blocks:     []int{64},
	}
	if got, want := g.Points(), 6; got != want {
		t.Fatalf("Points() = %d, want %d", got, want)
	}
	specs, skipped := g.Expand()
	if len(specs) != 6 || skipped != 0 {
		t.Fatalf("Expand() returned %d specs, %d skipped", len(specs), skipped)
	}
	// Technology is the outermost axis: all capacities of one provider
	// before the next provider starts.
	wantTech := []string{"itrs-sram", "itrs-sram", "stt-ram", "stt-ram", "gain-cell", "gain-cell"}
	for i, s := range specs {
		if s.Technology != wantTech[i] {
			t.Fatalf("spec %d technology %q, want %q (order: %v)", i, s.Technology, wantTech[i], specs)
		}
	}

	results := New(Options{}).Sweep(context.Background(), specs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d failed: %v", r.Index, r.Err)
		}
		sol := r.Solution
		switch r.Spec.Technology {
		case "stt-ram":
			if sol.WriteEndurance <= 0 || sol.WriteTime <= sol.AccessTime {
				t.Errorf("stt-ram point missing NVM write metrics: wt=%g end=%g", sol.WriteTime, sol.WriteEndurance)
			}
		case "gain-cell":
			if sol.RefreshPower <= 0 {
				t.Errorf("gain-cell point has no refresh power")
			}
		case "itrs-sram":
			if sol.WriteEndurance != 0 || sol.RefreshPower != 0 {
				t.Errorf("itrs-sram point grew NVM/refresh metrics: end=%g refr=%g", sol.WriteEndurance, sol.RefreshPower)
			}
		default:
			t.Errorf("unexpected technology %q in results", r.Spec.Technology)
		}
	}

	// The JSON export carries the technology key exactly for the
	// non-default points, and the new write metrics only where earned.
	for _, r := range results {
		blob, err := json.Marshal(ResultJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		s := string(blob)
		if !strings.Contains(s, `"technology":"`+r.Spec.Technology+`"`) {
			t.Errorf("JSON for %s point lacks technology key: %s", r.Spec.Technology, s)
		}
		if r.Spec.Technology == "itrs-sram" && strings.Contains(s, "write_endurance_cycles") {
			t.Errorf("ITRS point leaked endurance key: %s", s)
		}
		if r.Spec.Technology == "stt-ram" && !strings.Contains(s, "write_endurance_cycles") {
			t.Errorf("stt-ram point lost endurance key: %s", s)
		}
	}
}

// Unknown and ambiguous provider names must fail at request-parse
// time with the candidate list, for both the single-spec and sweep
// request shapes — this is what the HTTP layer maps to a 400.
func TestTechnologyRequestErrors(t *testing.T) {
	if _, err := (SpecRequest{Capacity: "64KB", Technology: "flashy"}).Spec(); err == nil ||
		!strings.Contains(err.Error(), "unknown technology") {
		t.Errorf("unknown provider: err = %v", err)
	}
	// "itrs-" prefixes itrs-sram, itrs-lpdram and itrs-commdram.
	if _, err := (SpecRequest{Capacity: "64KB", Technology: "itrs-"}).Spec(); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous provider: err = %v", err)
	}
	if _, err := (SweepRequest{Capacities: []string{"64KB"}, Technologies: []string{"flashy"}}).Grid(); err == nil ||
		!strings.Contains(err.Error(), "unknown technology") {
		t.Errorf("unknown provider in sweep: err = %v", err)
	}
}
