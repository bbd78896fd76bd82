package main

import (
	"math"
	"testing"
)

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.9, tailSamples); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs, 0.5, tailSamples); !ok || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9, tailSamples); ok {
		t.Fatal("p90 of 99 samples must be absent: fewer than 10 lie beyond it")
	}
	if _, ok := percentile(xs, 0.99, tailSamples); ok {
		t.Fatal("p99 of 100 samples must be absent")
	}
	if _, ok := percentile(xs[:19], 0.5, tailSamples); ok {
		t.Fatal("p50 of 19 samples must be absent")
	}
	if v, ok := percentile(xs[:3], 0.9, 0); !ok || v != 100 {
		t.Fatalf("p90 of 3 samples without the rule = %v, %v; want 100, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5, 0); ok {
		t.Fatal("no samples, no percentile")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the definition the ledger's spread
// check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2, 10}, 1.25, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		name   string
		better string
		a, b   []float64
		want   string
	}{
		{"same", "lower", steady, steady, "ok"},
		{"within bound", "lower", steady, scale(steady, 1.05), "ok"},
		{"regressed latency", "lower", steady, scale(steady, 1.2), "regressed"},
		{"regressed throughput", "higher", steady, scale(steady, 0.8), "regressed"},
		{"faster throughput", "higher", steady, scale(steady, 1.2), "ok"},
		{"spread too wide", "lower", steady, []float64{80, 120, 90, 130, 70, 110}, "unresolved"},
		{"wide but better on every run", "lower", []float64{100, 150, 120, 180}, []float64{60, 90, 70, 95}, "ok"},
	} {
		if got, _ := verdict(tc.better, 0.1, 0, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestVerdictSetupFloor checks setup_s against the recorded spread of
// same-code runs: medians near 4 ms with quartiles 1.2 ms apart, wider
// than a quarter of the median but well inside the 5 ms floor.
func TestVerdictSetupFloor(t *testing.T) {
	a := []float64{0.0029, 0.0031, 0.0038, 0.0040, 0.0043}
	b := []float64{0.0030, 0.0033, 0.0041, 0.0044, 0.0047}
	floor := absFloor["setup_s"]
	if got, _ := verdict("lower", 0.25, 0, a, b); got != "unresolved" {
		t.Errorf("without the floor: verdict = %s, want unresolved", got)
	}
	if got, _ := verdict("lower", 0.25, floor, a, b); got != "ok" {
		t.Errorf("with the floor: verdict = %s, want ok", got)
	}
	slow := make([]float64, len(a))
	for i, x := range a {
		slow[i] = x + 0.006
	}
	if got, worse := verdict("lower", 0.25, floor, a, slow); got != "regressed" {
		t.Errorf("6 ms slower: verdict = %s (%+.2f), want regressed", got, worse)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: union 10..60
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Start: 20, End: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self time = %d, want %d", spans[i].ID, got, want[i])
		}
	}
}
