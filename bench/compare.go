package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// absFloor is the smallest change, in the metric's unit, that counts
// against a bound: setup_s medians are a few milliseconds, so a share
// of them is within the jitter of starting a process.
var absFloor = map[string]float64{"setup_s": 0.005}

// verdict is the no-regression rule for one metric on one workload.
// The tolerance of a set is the bound times its median, or floor when
// that is larger. B is ok when every B run beats every A run;
// otherwise unresolved when either side's quartile spread is wider
// than its tolerance; otherwise regressed when B's median is worse
// than A's by more than A's tolerance. The second result is how much
// worse B's median is, as a share of A's.
func verdict(better string, bound, floor float64, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := mb - ma
	if better == "higher" {
		worse = ma - mb
	}
	tol := func(m float64) float64 { return max(bound*m, floor) }
	beats := func(x, y float64) bool {
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	all := true
	for _, x := range b {
		for _, y := range a {
			all = all && beats(x, y)
		}
	}
	wide := func(xs []float64, m float64) bool {
		q1, q3 := quartiles(xs)
		return q3-q1 > tol(m)
	}
	switch {
	case all:
		return "ok", worse / ma
	case wide(a, ma) || wide(b, mb):
		return "unresolved", worse / ma
	case worse > tol(ma):
		return "regressed", worse / ma
	}
	return "ok", worse / ma
}

// compareFiles prints, per workload and end-to-end metric, the median
// and quartiles of both run sets and the verdict. fail_ratio may not
// increase at all. It returns 1 when any pair is not ok.
func compareFiles(l *ledger, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	group := func(rs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ga, gb := group(a), group(b)
	var names []string
	for n := range ga {
		if _, ok := gb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload")
		return 2
	}
	notOK := 0
	fmt.Fprintf(stdout, "%-14s %-14s %34s %34s %8s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "worse", "verdict")
	for _, n := range names {
		for _, m := range l.EndToEnd {
			av, bv := values(ga[n], m.Name), values(gb[n], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(stdout, "%-14s %-14s %34s\n", n, m.Name, "missing")
				notOK++
				continue
			}
			v, worse := verdict(m.Better, m.Bound, absFloor[m.Name], av, bv)
			if v != "ok" {
				notOK++
			}
			fmt.Fprintf(stdout, "%-14s %-14s %34s %34s %+7.1f%%  %s\n", n, m.Name, summary(av), summary(bv), 100*worse, v)
		}
		fa, fb := failShare(ga[n]), failShare(gb[n])
		v := "ok"
		if fb > fa {
			v = "regressed"
			notOK++
		}
		fmt.Fprintf(stdout, "%-14s %-14s %34.6g %34.6g %8s  %s\n", n, "fail_ratio", fa, fb, "", v)
	}
	if notOK > 0 {
		return 1
	}
	return 0
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Values[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] n=%d", median(xs), q1, q3, len(xs))
}

func failShare(rs []result) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
