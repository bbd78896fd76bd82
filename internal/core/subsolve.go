package core

import (
	"context"
	"math"
	"sync/atomic"

	"cactid/internal/array"
	"cactid/internal/tech"
)

// Shared array sub-solves. The staged optimizer solves a tag array and
// a data array for every design point, yet a sweep's points often ask
// for the same arrays: the tag array ignores the access mode, a
// sequential cache's data array ignores associativity, and (C, N
// banks) and (2C, 2N) share one per-bank data array. A SubSolves
// table, owned by one sweep, lets each point reuse two things an
// earlier point of the same sweep computed:
//
//   - the tag bank of its tag array.Spec (optimizeTagBounded's answer);
//   - the array.Prescanned of its data array.Spec, with its exact
//     MinArea.
//
// Both are pure functions of the array spec. The bounded enumeration
// that follows (MinAccessWithin, Enumerate) stays per point, since its
// Limits depend on the tag, the bank count and the mode, so every
// answer is the float the per-point path computes (DESIGN.md §1.2d).

// The entry caps. A data entry pins a pooled build context
// (array.PrescanBytes) and a tag entry one bank with its mat, so the
// caps keep one sweep's live entries under about 1.5 MB.
const (
	maxDataEntries = 64
	maxTagEntries  = 256
)

// Process-wide counts of the sub-solves points took from their sweep's
// table.
var sharedTagHits, sharedDataHits atomic.Int64

// SubSolveStats is a snapshot of the shared sub-solve counters.
type SubSolveStats struct {
	TagHits  int64 // tag banks a point took from its sweep's table
	DataHits int64 // data-array prescans a point took from its sweep's table
}

// SubSolveCounters returns the process-wide shared sub-solve counters.
func SubSolveCounters() SubSolveStats {
	return SubSolveStats{TagHits: sharedTagHits.Load(), DataHits: sharedDataHits.Load()}
}

// A point's progress through the sweep.
const (
	pointPending uint32 = iota // not finished, not counted by a plan
	pointCounted               // counted among its entries' uses
	pointDone                  // finished (Done)
)

// The plan's publication states.
const (
	planNone uint32 = iota
	planBuilding
	planReady
)

// An entry's states. An entry is computed by one owner and read by
// every later point of its key; a point that finds it busy, or finds
// the table full, computes its own copy instead of waiting.
const (
	entryEmpty uint32 = iota
	entryBusy         // its owner is computing it
	entryReady        // published; read-only until dropped
	entryGone         // dropped: no point of the plan reads it again
)

// subEntry is one shared sub-solve: a tag bank, or a data-array
// prescan with its exact minimum area.
type subEntry struct {
	// uses counts the plan's points that may still read the entry;
	// the point that takes it to zero drops the entry.
	uses  atomic.Int32
	state atomic.Uint32

	// The value, written by the owner before state turns ready.
	tag   *array.Bank
	pre   *array.Prescanned // nil when the bounded path does not apply
	aMin  float64
	bytes int64 // heap the value pins, for the high-water mark
}

// subKey identifies one array sub-solve within a sweep. Inside a sweep
// the provider name and node fix the Technology value, so the key
// carries them instead of hashing the Technology itself; spec has its
// Tech pointer cleared and its repeater slack carried as bits, so a
// negative zero or a NaN keys exactly.
type subKey struct {
	tech  string
	node  tech.Node
	slack uint64
	spec  array.Spec
}

func subKeyOf(s *Spec, a array.Spec) subKey {
	k := subKey{tech: s.Technology, node: s.Node, slack: math.Float64bits(a.RepeaterSlack), spec: a}
	k.spec.RepeaterSlack = 0
	return k
}

// pointKeys indexes one point's technology, data entry and tag entry;
// -1 means none, and the point computes that part itself.
type pointKeys struct{ tech, data, tag int32 }

var noKeys = pointKeys{-1, -1, -1}

// SubSolves is one sweep's table of shared array sub-solves. A sweep
// creates it over its spec list, solves point i with Optimize(ctx, i,
// ...), reports every finished point with Done(i), solved or not, and
// calls Close once no call is running. The methods are safe for
// concurrent use by the sweep's workers, and a nil *SubSolves is the
// per-point path.
//
// The solutions of one table may share their tag bank and their
// Technology; callers treat them as read-only, as the explore engine
// does when it projects them.
type SubSolves struct {
	specs []Spec
	state []atomic.Uint32 // per point: pointPending, pointCounted or pointDone

	// planned publishes the plan. The first Optimize call builds it;
	// calls that find it building solve per point. The fields below it
	// are written only before publication.
	planned atomic.Uint32
	keys    []pointKeys
	techs   []*tech.Technology // one per (provider, node) of the plan
	dataEnt []subEntry
	tagEnt  []subEntry

	liveData, liveTag atomic.Int32 // entries busy or ready
	bytes             atomic.Int64 // heap pinned by ready entries
	peak              atomic.Int64 // bytes' high-water mark
}

// NewSubSolves returns an empty table for a sweep over specs. It does
// no per-point work: the first solve plans the table.
func NewSubSolves(specs []Spec) *SubSolves {
	return &SubSolves{specs: specs, state: make([]atomic.Uint32, len(specs))}
}

// Optimize is OptimizeContext for point i of the table's sweep: the
// same solution, bit for bit, with the technology, the tag bank and
// the data array's prescan taken from the table when an earlier point
// computed them. opts.Stats, when set, also reports which of them came
// from the table.
func (t *SubSolves) Optimize(ctx context.Context, i int, opts *Options) (*Solution, error) {
	t.plan()
	return optimize(ctx, t.specs[i], opts, t, i)
}

// Done reports that point i is finished, whether or not it called
// Optimize: its entries lose a use, and an entry no later point reads
// is dropped at once.
func (t *SubSolves) Done(i int) {
	if t != nil && t.state[i].Swap(pointDone) == pointCounted {
		t.unuse(t.keys[i])
	}
}

// Close drops every entry still live. Call it once, after the last
// Optimize and Done have returned.
func (t *SubSolves) Close() {
	if t == nil || t.planned.Load() != planReady {
		return
	}
	for i := range t.dataEnt {
		t.drop(&t.dataEnt[i], &t.liveData)
	}
	for i := range t.tagEnt {
		t.drop(&t.tagEnt[i], &t.liveTag)
	}
}

// plan builds the table's keys once, from the points not yet Done:
// per point, its technology and the keys of its data and tag arrays,
// and per key, how many points use it. Points that finish while the
// plan is built are reconciled after publication.
func (t *SubSolves) plan() {
	if t.planned.Load() != planNone || !t.planned.CompareAndSwap(planNone, planBuilding) {
		return
	}
	type techKey struct {
		name string
		node tech.Node
	}
	techOf := map[techKey]int32{}
	dataOf, tagOf := map[subKey]int32{}, map[subKey]int32{}
	var dataUses, tagUses []int32
	keys := make([]pointKeys, len(t.specs))
	for j := range t.specs {
		keys[j] = noKeys
		if t.state[j].Load() != pointPending {
			continue
		}
		s := t.specs[j]
		if s.normalize() != nil || !s.boundable() {
			continue
		}
		tk := techKey{s.Technology, s.Node}
		ti, seen := techOf[tk]
		if !seen {
			ti = -1
			if tt, err := tech.TechnologyOf(s.Technology, s.Node); err == nil {
				ti = int32(len(t.techs))
				t.techs = append(t.techs, tt)
			}
			techOf[tk] = ti
		}
		if ti < 0 {
			continue // the point reports the technology's error itself
		}
		k := pointKeys{tech: ti, data: intern(dataOf, &dataUses, subKeyOf(&s, dataArraySpec(s, nil))), tag: -1}
		if s.IsCache {
			k.tag = intern(tagOf, &tagUses, subKeyOf(&s, tagArraySpec(s, nil)))
		}
		keys[j] = k
	}
	t.keys = keys
	t.dataEnt = make([]subEntry, len(dataUses))
	for i, n := range dataUses {
		t.dataEnt[i].uses.Store(n)
	}
	t.tagEnt = make([]subEntry, len(tagUses))
	for i, n := range tagUses {
		t.tagEnt[i].uses.Store(n)
	}
	t.planned.Store(planReady)
	for j, k := range keys {
		if k.tech >= 0 && !t.state[j].CompareAndSwap(pointPending, pointCounted) {
			t.unuse(k) // finished while the plan was built
		}
	}
}

// intern returns k's index in m, adding it on first sight, and counts
// one more use of it.
func intern(m map[subKey]int32, uses *[]int32, k subKey) int32 {
	i, ok := m[k]
	if !ok {
		i = int32(len(*uses))
		m[k] = i
		*uses = append(*uses, 0)
	}
	(*uses)[i]++
	return i
}

// keysOf returns point i's keys, or noKeys when t is nil or unplanned.
func (t *SubSolves) keysOf(i int) pointKeys {
	if t == nil || t.planned.Load() != planReady {
		return noKeys
	}
	return t.keys[i]
}

// technology returns the spec's Technology: the table's copy for a
// keyed point, else a fresh one.
func (t *SubSolves) technology(spec Spec, k pointKeys) (*tech.Technology, error) {
	if k.tech < 0 {
		return tech.TechnologyOf(spec.Technology, spec.Node)
	}
	return t.techs[k.tech], nil
}

// How a point uses an entry.
const (
	claimPrivate = iota // compute its own copy
	claimHit            // read the published value
	claimOwn            // compute the value and publish it
)

// claim decides how a point uses entry e. It never waits: a busy
// entry, or a table at its cap, leaves the point to compute its own
// copy, and so does a key no later point shares.
func (t *SubSolves) claim(e *subEntry, live *atomic.Int32, limit int32) int {
	switch e.state.Load() {
	case entryReady:
		return claimHit
	case entryEmpty:
		if e.uses.Load() < 2 {
			return claimPrivate
		}
		if live.Add(1) <= limit && e.state.CompareAndSwap(entryEmpty, entryBusy) {
			return claimOwn
		}
		live.Add(-1)
	}
	return claimPrivate
}

// publish makes the owner's value readable and charges its bytes. It
// reports false when the entry was dropped meanwhile, which cannot
// happen while the owner is counted among the uses; the owner then
// keeps the value to itself.
func (t *SubSolves) publish(e *subEntry, n int64) bool {
	e.bytes = n
	b := t.bytes.Add(n)
	for p := t.peak.Load(); b > p && !t.peak.CompareAndSwap(p, b); p = t.peak.Load() {
	}
	if e.state.CompareAndSwap(entryBusy, entryReady) {
		return true
	}
	t.bytes.Add(-n)
	return false
}

// abandon returns a busy entry whose owner failed to empty, so a later
// point may compute it.
func (t *SubSolves) abandon(e *subEntry, live *atomic.Int32) {
	if e.state.CompareAndSwap(entryBusy, entryEmpty) {
		live.Add(-1)
	}
}

// unuse takes one use off each of a point's entries.
func (t *SubSolves) unuse(k pointKeys) {
	if k.data >= 0 {
		if e := &t.dataEnt[k.data]; e.uses.Add(-1) == 0 {
			t.drop(e, &t.liveData)
		}
	}
	if k.tag >= 0 {
		if e := &t.tagEnt[k.tag]; e.uses.Add(-1) == 0 {
			t.drop(e, &t.liveTag)
		}
	}
}

// drop retires an entry for good, releasing what it pins. A busy
// entry's owner panicked mid-entry: its value was never published.
func (t *SubSolves) drop(e *subEntry, live *atomic.Int32) {
	switch e.state.Swap(entryGone) {
	case entryReady:
		live.Add(-1)
		t.bytes.Add(-e.bytes)
		if e.pre != nil {
			e.pre.Release()
		}
		e.pre, e.tag = nil, nil
	case entryBusy:
		live.Add(-1)
	}
}

// tag returns the point's tag bank: optimizeTagBounded's answer,
// computed here or taken from the table.
func (t *SubSolves) tag(ctx context.Context, spec Spec, tt *tech.Technology, k pointKeys, opts *Options) (*array.Bank, error) {
	if k.tag < 0 {
		return optimizeTagBounded(ctx, spec, tt, opts)
	}
	e := &t.tagEnt[k.tag]
	switch t.claim(e, &t.liveTag, maxTagEntries) {
	case claimHit:
		sharedTagHits.Add(1)
		if opts != nil && opts.Stats != nil {
			opts.Stats.TagShared = true
		}
		return e.tag, nil
	case claimPrivate:
		return optimizeTagBounded(ctx, spec, tt, opts)
	}
	b, err := optimizeTagBounded(ctx, spec, tt, opts)
	if err != nil {
		t.abandon(e, &t.liveTag)
		return nil, err
	}
	e.tag = b
	t.publish(e, array.BankCopyBytes)
	return b, nil
}

// data returns the point's data-array prescan and its exact minimum
// area, computed here or taken from the table; pre is nil when the
// bounded path does not apply. A prescan that is not shared is the
// caller's to release.
func (t *SubSolves) data(spec Spec, tt *tech.Technology, k pointKeys, opts *Options) (pre *array.Prescanned, aMin float64, shared bool) {
	ds := dataArraySpec(spec, tt)
	if k.data < 0 {
		pre, aMin = prescanData(ds)
		return pre, aMin, false
	}
	e := &t.dataEnt[k.data]
	switch t.claim(e, &t.liveData, maxDataEntries) {
	case claimHit:
		sharedDataHits.Add(1)
		if opts != nil && opts.Stats != nil {
			opts.Stats.DataShared = true
		}
		return e.pre, e.aMin, true
	case claimPrivate:
		pre, aMin = prescanData(ds)
		return pre, aMin, false
	}
	pre, aMin = prescanData(ds)
	e.pre, e.aMin = pre, aMin
	n := int64(0)
	if pre != nil {
		n = array.PrescanBytes
	}
	return pre, aMin, t.publish(e, n)
}

// prescanData prescans a data array and walks its exact minimum bank
// area. It returns a nil prescan, with nothing left to release, when
// no point of the grid builds.
func prescanData(ds array.Spec) (*array.Prescanned, float64) {
	pre, err := array.Prescan(ds)
	if err != nil {
		return nil, 0
	}
	if len(pre.Points) > 0 {
		if aMin, ok := pre.MinArea(); ok {
			return pre, aMin
		}
	}
	pre.Release()
	return nil, 0
}
