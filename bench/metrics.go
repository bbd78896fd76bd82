package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The first eight are what a
// user of cactid-serve sees; the rest attribute that time to the
// layers of the request path. BENCHMARK.json lists the subset the
// ledger gates and records; every metric here is printed with its
// unit. traced metrics come from the in-process replay only. The
// core.solve_us_* and core.nosolution_ratio metrics time the oracle's
// offline re-solves of the checked specs; every other untraced metric
// comes from the timed phase.
type metricDef struct {
	name   string
	unit   string
	traced bool
}

var metricDefs = []metricDef{
	{"points_per_s", "1/s", false},
	{"solve_p50_ms", "ms", false},
	{"solve_p90_ms", "ms", false},
	{"sweep_p50_ms", "ms", false},
	{"sweep_p90_ms", "ms", false},
	{"fail_ratio", "ratio", false},
	{"setup_s", "s", false},
	{"rss_peak_mb", "MB", false},

	{"core.solve_us_p50", "us", false},
	{"core.solve_us_p90", "us", false},
	{"core.solve_share", "ratio", true},
	{"core.nosolution_ratio", "ratio", false},
	{"array.orgs_considered_per_solve", "count", false},
	{"array.orgs_built_per_solve", "count", false},
	{"array.prune_ratio", "ratio", false},
	{"array.bound_prune_ratio", "ratio", false},
	{"explore.fingerprint_us", "us", true},
	{"explore.tier0_hit_us", "us", true},
	{"explore.tier0_hit_ratio", "ratio", false},
	{"explore.tier1_hit_ratio", "ratio", false},
	{"explore.evictions_per_req", "count", false},
	{"explore.solves_per_point", "ratio", false},
	{"store.get_us_p50", "us", true},
	{"store.put_us_p50", "us", true},
	{"store.recover_ms", "ms", true},
	{"store.bytes_on_disk_mb", "MB", false},
	{"store.corrupt_reads", "count", false},
	{"serve.decode_us_per_req", "us", true},
	{"serve.encode_us_per_point", "us", true},
	{"serve.bytes_per_point", "B", false},
	{"serve.job_first_result_ms", "ms", false},
	{"serve.shed_ratio", "ratio", false},
	{"serve.req_p99_ms", "ms", false},
	{"serve.unattributed_share_solve", "ratio", true},
	{"serve.unattributed_share_sweep", "ratio", true},
	{"fabric.dispatch_ms_p50", "ms", true},
	{"fabric.worker_busy_share", "ratio", false},
	{"fabric.wire_us_per_point", "us", true},
	{"fabric.chunks_per_sweep", "count", false},
	{"fabric.steals_per_sweep", "count", false},
	{"fabric.reroutes", "count", false},
	{"fabric.local_points", "count", false},
	{"fabric.duplicate_results", "count", false},
	{"runtime.alloc_kb_per_point", "KB", false},
	{"runtime.gc_cpu_fraction", "ratio", false},
	{"runtime.heap_mb_end", "MB", false},
	{"bench.trace_overhead_share", "ratio", true},
	{"bench.client_cpu_share", "ratio", false},
}

func defOf(name string) metricDef {
	for _, d := range metricDefs {
		if d.name == name {
			return d
		}
	}
	return metricDef{}
}

func unitOf(name string) string { return defOf(name).unit }

func isTraced(name string) bool { return defOf(name).traced }

// tailSamples is how many samples must lie beyond a reported
// percentile: p50 needs 20 samples, p90 100 and p99 1000. A
// percentile with fewer is absent, and a run whose p90 is absent is
// invalid.
const tailSamples = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1)
// and false when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64, minTail int) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < float64(minTail)-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n))) - 1
	return s[max(i, 0)], true
}

// median is statistics.median: the middle value, or the mean of the
// two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so the spreads this harness prints match the ones
// the ledger is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
