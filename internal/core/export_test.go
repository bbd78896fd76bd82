package core

import (
	"context"

	"cactid/internal/array"
)

// The hooks below let package core_test, whose tests draw specs from
// internal/spectest (which imports core), reach the solver's
// unexported steps.

// Normalize fills s's defaults and validates it, as every solve does.
func Normalize(s *Spec) error { return s.normalize() }

// Boundable reports whether the bounded explore applies to the
// normalized spec s.
func Boundable(s *Spec) bool { return s.boundable() }

// ExploreBounded is exploreBounded: the bounded explore as a solution
// list.
func ExploreBounded(ctx context.Context, spec Spec, opts *Options) ([]*Solution, bool, error) {
	return exploreBounded(ctx, spec, opts)
}

// AppendHashInput appends the canonical spec c's fingerprint input.
func AppendHashInput(c *Spec, b []byte) []byte { return c.appendHashInput(b) }

// ArrayKeys returns the normalized spec's data and tag array specs,
// the keys a sweep's table shares sub-solves under.
func ArrayKeys(s Spec) (data, tag array.Spec) { return dataArraySpec(s, nil), tagArraySpec(s, nil) }

// Peak returns the high-water mark of the bytes t's live entries pin.
func (t *SubSolves) Peak() int64 { return t.peak.Load() }

// Live returns the bytes t's ready entries pin and the number of live
// data and tag entries.
func (t *SubSolves) Live() (bytes int64, data, tag int32) {
	return t.bytes.Load(), t.liveData.Load(), t.liveTag.Load()
}
