package analysis

import (
	"strings"
	"testing"
)

func TestFloatDet(t *testing.T)  { runFixture(t, FloatDet, "floatdet.go") }
func TestCtxFlow(t *testing.T)   { runFixture(t, CtxFlow, "ctxflow.go") }
func TestLockGuard(t *testing.T) { runFixture(t, LockGuard, "lockguard.go") }

func TestDetPure(t *testing.T) { runProgramFixture(t, DetPure, "detpure") }
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
	if got, want := strings.Join(names, ","), "floatdet,ctxflow,lockguard,detpure"; got != want {
		t.Errorf("All() = %s, want %s", got, want)
	}
}
