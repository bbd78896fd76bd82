package explore

import "cactid/internal/core"

// dominates reports whether a is at least as good as b on all four
// optimization objectives — access time, per-read dynamic energy,
// leakage power, area — and strictly better on at least one.
func dominates(a, b *core.Solution) bool {
	if a.AccessTime > b.AccessTime || a.EReadPerAccess > b.EReadPerAccess ||
		a.LeakagePower > b.LeakagePower || a.Area > b.Area {
		return false
	}
	return a.AccessTime < b.AccessTime || a.EReadPerAccess < b.EReadPerAccess ||
		a.LeakagePower < b.LeakagePower || a.Area < b.Area
}

// Frontier extracts the Pareto-optimal subset of a sweep: results no
// other successful result dominates. Errored points are dropped;
// input (sweep) order is preserved, so the frontier is deterministic.
// Duplicate design points (same fingerprint) keep only their first
// occurrence.
func Frontier(results []Result) []Result {
	ok := make([]Result, 0, len(results))
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		if r.Err != nil || r.Solution == nil || seen[r.Fingerprint] {
			continue
		}
		seen[r.Fingerprint] = true
		ok = append(ok, r)
	}
	frontier := make([]Result, 0, len(ok))
	for i, r := range ok {
		dominated := false
		for j, other := range ok {
			if i != j && dominates(other.Solution, r.Solution) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, r)
		}
	}
	return frontier
}
