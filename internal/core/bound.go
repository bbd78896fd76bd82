// Branch-and-bound explore: derive the staged filter's own pruning
// thresholds exactly, then enumerate with bound pruning so that most
// grid points are discarded before circuit modeling.
//
// The staged filter (Filter, Section 2.4) keeps exactly the solutions
// within MaxAreaConstraint of the minimum area and, among those,
// within MaxAcctimeConstraint of the minimum access time; stage 3
// only sorts. Both stage minima are recovered exactly — bitwise, not
// approximately — before the enumeration runs:
//
//   - array.Prescanned.MinArea walks shards in ascending lower-bound
//     order, evaluating the exact bank metrics (array's pointExact,
//     finishInto's own floats) lazily, and returns the exact minimum
//     bank area of the feasible set.
//
//   - array.Prescanned.MinAccessWithin does the same for access time,
//     restricted to the points whose assembled solution area lies in
//     the stage-1 window — membership is decided with assemble's own
//     arithmetic, so it matches Filter's stage-1 cut bitwise.
//
// The bank-unit minima translate to solution units through assemble's
// monotone (order- and equality-preserving) compositions, so the
// derived thresholds equal the minima Filter recomputes. A point is
// then pruned only when its metrics provably sit outside both stages'
// reach:
//
//   - Area rule: area lower bound above minSolArea*(1+c1), translated
//     to bank units — the point fails stage 1 and, being strictly
//     above the minimum, cannot move the recomputed stage-1 minimum.
//
//   - Access rule: access lower bound above minSolAcc*(1+c2) — the
//     point fails stage 2 — unless its area bound is at or below the
//     exact minimum area (the guard), which keeps the stage-1 argmin
//     (and its ties) alive so the recomputed minima stay exact.
//
// Every surviving stage-2 member passes both rules, so Filter over
// the pruned set returns value-identical solutions in the identical
// order (its sort is a total order). Weighted-objective pruning is
// deliberately absent: stage 3 never discards, so any objective-based
// prune would change the returned list. The full derivation,
// including why the translated thresholds are nudged up by 1e-9 to
// absorb float rounding (the exact guard and the exact tag threshold
// need no nudge: both sides of those comparisons are the same
// floats), is DESIGN.md §1.2e.
package core

import (
	"context"
	"fmt"
	"math"

	"cactid/internal/array"
	"cactid/internal/tech"
)

// safeUp nudges a translated threshold up by a hair (1e-9 relative —
// ~10^7 ulps, far beyond any rounding drift in the translation
// arithmetic, far below the constraint windows themselves) so that
// float rounding can never turn "provably outside the filter window"
// into "pruned a survivor". Overshooting only weakens pruning.
func safeUp(x float64) float64 { return x + math.Abs(x)*1e-9 }

// boundable reports whether the bounded explore path's byte-identity
// proof applies to spec: the staged constraints must be positive
// (normalize guarantees that unless the caller forced them negative)
// and the solution area must be affine in the data-bank area — bank
// routing adds a sqrt(area) wire term that breaks the threshold
// translation, so multi-bank routed specs take the unbounded path.
func (s *Spec) boundable() bool {
	return s.MaxAreaConstraint > 0 && s.MaxAcctimeConstraint > 0 &&
		!(s.IncludeBankRouting && s.Banks > 1)
}

// boundedCandidates runs the branch-and-bound explore, returning the
// candidates the staged filter may keep as unassembled data banks
// over the chosen tag bank. ok reports whether the bounded path
// applied; on !ok the caller falls back to ExploreContext (empty
// feasible set or an unsupported spec shape — both rare, neither an
// error). spec is point i of the sweep whose table t shares array
// sub-solves: the technology, the tag bank and the data array's
// prescan with its exact minimum area come from t when an earlier
// point computed them. A nil t, or a point without keys, computes all
// three itself.
func boundedCandidates(ctx context.Context, spec Spec, opts *Options, t *SubSolves, i int) (c candidates, ok bool, err error) {
	if err := spec.normalize(); err != nil {
		return c, false, err
	}
	if !spec.boundable() {
		return c, false, nil
	}
	k := t.keysOf(i)
	tt, err := t.technology(spec, k)
	if err != nil {
		return c, false, err
	}

	var tag *array.Bank
	if spec.IsCache {
		tag, err = t.tag(ctx, spec, tt, k, opts)
		if err != nil {
			return c, false, fmt.Errorf("core: tag array: %w", err)
		}
	}
	tagArea, tagAcc := 0.0, 0.0
	if tag != nil {
		tagArea, tagAcc = tag.Area, tag.AccessTime
	}

	// Stage-1 threshold and guard: the walk recovers the exact minimum
	// bank area, which composes (assemble's float ops) to the exact
	// minimum solution area Filter will compute. The guard is the
	// minimum itself — enumeration compares the identical floats, so
	// the argmin and its exact ties survive with no nudge.
	pre, aMin, shared := t.data(spec, tt, k, opts)
	if pre == nil {
		return c, false, nil
	}
	if !shared {
		defer pre.Release()
	}
	nb := float64(spec.Banks)
	c1, c2 := spec.MaxAreaConstraint, spec.MaxAcctimeConstraint
	minSolArea := nb * (aMin + tagArea)
	window := minSolArea * (1 + c1) // Filter's stage-1 cut, bitwise
	lim := array.Limits{
		MaxAreaLB: safeUp(window/nb - tagArea),
		MaxAccLB:  math.Inf(1),
		AreaGuard: aMin,
	}

	// Stage-2 threshold: the exact minimum access time among stage-1
	// members, composed to solution units per the access mode, then
	// translated back to a data-bank cut. The compositions are
	// monotone, so the bank-unit argmin is the solution-unit argmin.
	if accMin, okAcc := pre.MinAccessWithin(nb, tagArea, window); okAcc {
		wayMux := 0.0
		if spec.IsCache && spec.Mode == Normal && spec.Associativity > 1 {
			wayMux = 30e-12 // late way-select mux after tag compare
		}
		var minSolAcc float64
		switch {
		case !spec.IsCache:
			minSolAcc = accMin
		case spec.Mode == Sequential:
			minSolAcc = tagAcc + accMin
		case spec.Mode == Fast:
			minSolAcc = math.Max(tagAcc, accMin)
		default: // Normal
			minSolAcc = math.Max(tagAcc+wayMux, accMin) + wayMux
		}
		t2 := minSolAcc * (1 + c2)
		switch {
		case !spec.IsCache:
			lim.MaxAccLB = safeUp(t2)
		case spec.Mode == Sequential:
			lim.MaxAccLB = safeUp(t2 - tagAcc)
		case spec.Mode == Fast:
			lim.MaxAccLB = safeUp(t2)
		default: // Normal
			lim.MaxAccLB = safeUp(t2 - wayMux)
		}
	}

	// The candidates carry the enumeration's banks, and the caller
	// releases them, on every path, once it has copied the winner out.
	data, counters, err := pre.Enumerate(ctx, lim)
	if opts != nil && opts.Stats != nil {
		opts.Stats.Data = counters
	}
	c = candidates{spec: spec, data: data, tag: tag}
	if err != nil {
		return c, false, err
	}
	// No access-time pre-sort here: Filter's final comparison is a
	// total order, so its winner is independent of input order
	// (ExploreContext keeps its sorted contract for API users). An
	// empty list cannot happen, since the exact area argmin provably
	// survives its own thresholds; stay safe and fall back.
	return c, len(data.Banks) > 0, nil
}

// probeTries bounds how many candidate organizations the tag probe
// may build before the solver falls back to the unbounded path.
const probeTries = 8

// buildProbe picks and builds probe organizations from a prescan, in
// a deterministic order (ascending cheap access bound, grid order
// breaking ties), returning the first that builds plus its bank.
func buildProbe(pre *array.Prescanned) (*array.Bank, bool) {
	pts := pre.Points
	idx := pre.ByAccess()
	tries := probeTries
	if tries > len(idx) {
		tries = len(idx)
	}
	for _, i := range idx[:tries] {
		if b, err := pre.Build(pts[i].Org); err == nil {
			return b, true
		}
	}
	return nil, false
}

// optimizeTagBounded is optimizeTag with access-time bound pruning:
// the tag array is chosen purely by minimum access time (organization
// order breaking ties), so any point whose exact access time exceeds
// a built probe's can never win — one cheap probe build, not an exact
// walk, keeps the tag path nearly free (the enumeration's exact point
// tier discards everything slower than the probe before it is built).
// Falls back to the full optimizeTag when no probe builds.
func optimizeTagBounded(ctx context.Context, spec Spec, t *tech.Technology, opts *Options) (*array.Bank, error) {
	tagSpec := tagArraySpec(spec, t)
	pre, err := array.Prescan(tagSpec)
	if err != nil {
		return optimizeTag(ctx, spec, t, opts)
	}
	defer pre.Release()
	if len(pre.Points) == 0 {
		return optimizeTag(ctx, spec, t, opts)
	}
	probe, built := buildProbe(pre)
	if !built {
		return optimizeTag(ctx, spec, t, opts)
	}
	lim := array.Limits{
		MaxAreaLB: math.Inf(1),
		MaxAccLB:  probe.AccessTime, // exact, untranslated: no nudge needed
		AreaGuard: math.Inf(-1),     // no stage-1 minimum to protect
	}
	tags, counters, err := pre.Enumerate(ctx, lim)
	defer tags.Release()
	if opts != nil && opts.Stats != nil {
		opts.Stats.Tag = counters
	}
	if err != nil {
		return nil, err
	}
	return fastest(tags.Banks)
}
