package fabric

import (
	"context"
	"errors"

	"cactid/internal/core"
	"cactid/internal/explore"
)

// The wire format carries the API-visible projection of a sweep
// result between a worker and the coordinator: the full core.Spec
// (flat, all exported — JSON round-trips it exactly, including the
// float constraints, since encoding/json emits shortest-round-trip
// float64s) and, for a solved point, its core.Projection: the scalar
// metrics and the data/tag organizations as structs rather than
// pre-rendered strings. That is everything explore.ResultJSON /
// explore.WriteCSV read, so a result reconstructed from its wire form
// renders byte-identically to the original — the property the
// fabric's "distributed == single-node" guarantee rests on. Mat-level
// detail (timing components, electrical parameters) stays on the
// worker that solved the point.

// Error kinds let the coordinator keep errors.Is semantics across the
// wire without shipping Go error chains.
const (
	errKindNoSolution = "no_solution"
	errKindCanceled   = "canceled"
	errKindDeadline   = "deadline"
	errKindPanic      = "panic"
	errKindOther      = "other"
)

// wireError reconstructs a worker-side error on the coordinator: the
// exact message (so rendered output is byte-identical) plus an Is
// bridge for the sentinel the kind names.
type wireError struct {
	msg  string
	kind string
}

func (e *wireError) Error() string { return e.msg }

func (e *wireError) Is(target error) bool {
	switch e.kind {
	case errKindNoSolution:
		return target == core.ErrNoSolution
	case errKindCanceled:
		return target == context.Canceled
	case errKindDeadline:
		return target == context.DeadlineExceeded
	case errKindPanic:
		return target == explore.ErrSolverPanic
	}
	return false
}

func errKind(err error) string {
	switch {
	case errors.Is(err, core.ErrNoSolution):
		return errKindNoSolution
	case errors.Is(err, context.Canceled):
		return errKindCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return errKindDeadline
	case errors.Is(err, explore.ErrSolverPanic):
		return errKindPanic
	}
	return errKindOther
}

// WireResult is one evaluated point in transit.
type WireResult struct {
	Index       int              `json:"index"`
	Spec        core.Spec        `json:"spec"`
	Fingerprint string           `json:"fingerprint,omitempty"`
	Cached      bool             `json:"cached,omitempty"`
	Solution    *core.Projection `json:"solution,omitempty"`
	Error       string           `json:"error,omitempty"`
	ErrorKind   string           `json:"error_kind,omitempty"`
}

// BatchRequest is the wire=fabric body of POST /v1/solve-batch:
// native core.Spec values, no lossy name round-trip through the
// human-facing SpecRequest form.
type BatchRequest struct {
	Specs []core.Spec `json:"specs"`
}

// BatchResponse is the wire=fabric reply.
type BatchResponse struct {
	Results []WireResult `json:"results"`
}

// ToWire projects a sweep result into its transportable form.
func ToWire(r explore.Result) WireResult {
	w := WireResult{
		Index:       r.Index,
		Spec:        r.Spec,
		Fingerprint: r.Fingerprint,
		Cached:      r.Cached,
	}
	if r.Err != nil {
		w.Error = r.Err.Error()
		w.ErrorKind = errKind(r.Err)
		return w
	}
	if s := r.Solution; s != nil {
		p := s.Projection()
		w.Solution = &p
	}
	return w
}

// FromWire reconstructs a result the explore exporters render
// byte-identically to the worker-side original. The rebuilt
// core.Solution carries the API-visible fields only (see
// core.Projection.Solution). A reply solution without a spec or a
// data organization cannot be rendered: it becomes that point's error,
// of kind "other".
func FromWire(w WireResult) explore.Result {
	r := explore.Result{
		Index:       w.Index,
		Spec:        w.Spec,
		Fingerprint: w.Fingerprint,
		Cached:      w.Cached,
	}
	if w.Error != "" {
		r.Err = &wireError{msg: w.Error, kind: w.ErrorKind}
		return r
	}
	if p := w.Solution; p != nil {
		sol, err := p.Solution()
		if err != nil {
			r.Err = &wireError{msg: "fabric wire: reply solution: " + err.Error(), kind: errKindOther}
			return r
		}
		r.Solution = sol
	}
	return r
}

// canceled reports whether the wire result was cut off by the
// worker's context rather than decided on the merits: such a point
// says nothing about its spec and must be re-dispatched, never
// recorded.
func (w WireResult) canceled() bool {
	return w.ErrorKind == errKindCanceled || w.ErrorKind == errKindDeadline
}
