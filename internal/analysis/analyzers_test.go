package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestFloatDet(t *testing.T)  { runFixture(t, FloatDet, "floatdet.go") }
func TestCtxFlow(t *testing.T)   { runFixture(t, CtxFlow, "ctxflow.go") }
func TestLockGuard(t *testing.T) { runFixture(t, LockGuard, "lockguard.go") }

func TestDetPure(t *testing.T) { runProgramFixture(t, DetPure, "detpure") }
func TestWireCompatDrift(t *testing.T) {
	runProgramFixture(t, WireCompat, "wirecompat_drift")
}

// TestWireCompatRoundTrip proves the digest lifecycle: a golden
// written by WriteWireDigests (the -fix-digests implementation) makes
// the analyzer come back clean on the same program.
func TestWireCompatRoundTrip(t *testing.T) {
	prog := loadFixtureProgram(t, "wirecompat_ok")
	prog.WireDigestFile = filepath.Join(t.TempDir(), "wiredigest.json")
	if _, err := WriteWireDigests(prog); err != nil {
		t.Fatal(err)
	}
	diags, err := RunProgram(prog, []*Analyzer{WireCompat})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic after round trip: %s", d)
	}
}

// TestWireCompatMissingGolden: with no golden on disk the analyzer
// points at -fix-digests instead of guessing.
func TestWireCompatMissingGolden(t *testing.T) {
	prog := loadFixtureProgram(t, "wirecompat_ok")
	prog.WireDigestFile = filepath.Join(t.TempDir(), "absent.json")
	diags, err := RunProgram(prog, []*Analyzer{WireCompat})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unreadable") {
		t.Fatalf("want exactly one 'unreadable' finding, got %v", diags)
	}
}

func TestAllRegistered(t *testing.T) {
	var names []string
	for _, a := range All() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %s must set exactly one of Run and RunProgram", a.Name)
		}
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, ","), "floatdet,ctxflow,lockguard,detpure,wirecompat"; got != want {
		t.Errorf("All() = %s, want %s", got, want)
	}
}
