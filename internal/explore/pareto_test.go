package explore

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

func fakeResult(idx int, fp string, acc, energy, leak, area float64) Result {
	return Result{
		Index:       idx,
		Fingerprint: fp,
		Spec:        core.Spec{RAM: tech.SRAM, Node: tech.Node32},
		Solution: &core.Solution{
			AccessTime: acc, EReadPerAccess: energy, LeakagePower: leak, Area: area,
		},
	}
}

func TestFrontierDropsDominatedPoints(t *testing.T) {
	results := []Result{
		fakeResult(0, "a", 1, 1, 1, 1),             // frontier
		fakeResult(1, "b", 2, 2, 2, 2),             // dominated by a
		fakeResult(2, "c", 0.5, 3, 3, 3),           // frontier: fastest
		fakeResult(3, "d", 3, 0.5, 3, 3),           // frontier: lowest energy
		fakeResult(4, "e", 1, 1, 1, 1.0001),        // dominated by a (tie on 3 axes)
		{Index: 5, Err: errors.New("no solution")}, // dropped
	}
	f := Frontier(results)
	if len(f) != 3 {
		t.Fatalf("frontier has %d points, want 3", len(f))
	}
	for i, want := range []int{0, 2, 3} {
		if f[i].Index != want {
			t.Errorf("frontier[%d].Index = %d, want %d", i, f[i].Index, want)
		}
	}
}

func TestFrontierKeepsIncomparableTies(t *testing.T) {
	// Two identical points are mutually non-dominating: both stay
	// (deduped only when they are the same design, i.e. fingerprint).
	results := []Result{
		fakeResult(0, "x", 1, 1, 1, 1),
		fakeResult(1, "y", 1, 1, 1, 1),
		fakeResult(2, "x", 1, 1, 1, 1), // same design as 0: deduped
	}
	f := Frontier(results)
	if len(f) != 2 || f[0].Index != 0 || f[1].Index != 1 {
		t.Fatalf("frontier = %+v, want points 0 and 1", f)
	}
}

func TestEngineParetoRealSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("real-solver sweep")
	}
	e := New(Options{Workers: 4})
	specs, _ := testGrid().Expand()
	front := Frontier(e.Sweep(context.Background(), specs))
	if len(front) == 0 || len(front) >= len(specs) {
		t.Fatalf("frontier size %d of %d", len(front), len(specs))
	}
	// No frontier point may dominate another.
	for _, a := range front {
		for _, b := range front {
			if a.Index != b.Index && dominates(a.Solution, b.Solution) {
				t.Fatalf("frontier point %d dominates %d", a.Index, b.Index)
			}
		}
	}
}

func TestWriteCSVShape(t *testing.T) {
	results := []Result{
		fakeResult(0, "aa", 1e-9, 2e-10, 0.5, 1e-6),
		{Index: 1, Spec: core.Spec{RAM: tech.LPDRAM}, Err: core.ErrNoSolution},
	}
	// fakeResult solutions carry no Data bank, which WriteCSV needs;
	// export this one as a metric-less row instead.
	results[0].Solution = nil
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,fingerprint,ram,") {
		t.Fatalf("header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[2], "no feasible solution") {
		t.Fatalf("error row missing message: %s", lines[2])
	}
}

func TestWriteCSVRealSolution(t *testing.T) {
	e := New(Options{})
	spec := core.Spec{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 64 << 10, BlockBytes: 64}
	res := e.Sweep(context.Background(), []core.Spec{spec})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "65536") || !strings.Contains(out, "SRAM") {
		t.Fatalf("CSV missing spec identity:\n%s", out)
	}
	jb, err := AppendResultsJSON(nil, res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jb), "\"access_time_s\"") {
		t.Fatal("JSON missing metrics")
	}
}
