package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"cactid/internal/core"
	"cactid/internal/jsondec"
)

// Tiered is the durable tier-1 contract the exploration engine
// composes under its in-memory result cache (tier 0): a persistent
// map from spec fingerprint to solve outcome. Implementations must be
// safe for concurrent use and must never return a corrupt outcome —
// any doubt is reported as a miss.
type Tiered interface {
	// Lookup returns the persisted outcome for a fingerprint. ok is
	// false on a miss, a read fault, or a record written under a
	// different ModelVersion.
	Lookup(ctx context.Context, fingerprint string) (Hit, bool)
	// Save persists a pure outcome. Outcomes that persistable rejects
	// and write faults are dropped silently: the store is a cache of
	// recomputable results, so losing a write costs durability only.
	Save(ctx context.Context, fingerprint string, sol *core.Solution, solveErr error)
}

// Hit is one outcome served from the durable tier: either a solution
// or a deterministic solver error (ErrNoSolution), never both.
type Hit struct {
	Solution *core.Solution
	Err      error
}

// persistable reports whether a solve outcome may be written to the
// durable tier: a success, or the deterministic "spec admits no
// feasible design" verdict. Cancellations, deadline hits, recovered
// panics and injected faults are circumstances of one run, not
// properties of the spec, and must never be replayed to later
// callers.
func persistable(solveErr error) bool {
	return solveErr == nil || errors.Is(solveErr, core.ErrNoSolution)
}

// solutionRecord is the JSON payload persisted per fingerprint: a
// no-solution verdict with its error text, or a solution's
// core.Projection (the surface every exporter consumes) rather than
// the full evaluated design tree. The projection is embedded by value,
// so its omitempty keys sit flat beside model_version and decoding
// allocates no extra struct. encoding/json formats float64 with the
// shortest representation that round-trips exactly, so rehydrated
// metrics are bit-identical.
type solutionRecord struct {
	ModelVersion int `json:"model_version"`

	NoSolution bool   `json:"no_solution,omitempty"`
	ErrText    string `json:"error,omitempty"`

	core.Projection
}

var recordKeys = jsondec.Keys(solutionRecord{})

// decodeRecord decodes a record with the typed decoder the fabric
// wire uses, into the values encoding/json would fill, skipping
// unknown keys as it does. A key that matches a field only with case
// folded is an error: json.Marshal spells every key exactly.
func decodeRecord(data []byte) (solutionRecord, error) {
	var rec solutionRecord
	var d jsondec.Decoder // on the stack, as is rec
	d.Reset(data, false)
	err := d.Object(func(key []byte) error {
		switch string(key) {
		case "model_version":
			return jsondec.Int(&d, &rec.ModelVersion)
		case "no_solution":
			return d.Bool(&rec.NoSolution)
		case "error":
			return d.String(&rec.ErrText)
		}
		return d.ProjectionMember(&rec.Projection, key, recordKeys)
	})
	if err == nil {
		err = d.End()
	}
	return rec, err
}

// Solutions adapts a Store into the Tiered interface, handling the
// (ModelVersion, fingerprint) keying and the solution codec.
type Solutions struct {
	s *Store
}

// NewSolutions wraps a Store as the engine's durable tier.
func NewSolutions(s *Store) *Solutions { return &Solutions{s: s} }

// solutionKey namespaces fingerprints by model version, so a bumped
// ModelVersion orphans every stale record instead of serving it.
func solutionKey(fingerprint string) string {
	return fmt.Sprintf("s:%d:%s", core.ModelVersion, fingerprint)
}

// Lookup implements Tiered.
func (t *Solutions) Lookup(ctx context.Context, fingerprint string) (Hit, bool) {
	val, ok, err := t.s.Get(ctx, solutionKey(fingerprint))
	if err != nil || !ok {
		return Hit{}, false
	}
	rec, err := decodeRecord(val)
	if err != nil || rec.ModelVersion != core.ModelVersion {
		// Structurally invalid payloads count as corruption the CRC
		// could not catch (a bug, not bit rot) — still served as a
		// miss, never as a wrong answer.
		t.s.corruptReads.Add(1)
		return Hit{}, false
	}
	if rec.NoSolution {
		return Hit{Err: rehydrateNoSolution(rec.ErrText)}, true
	}
	sol, err := rec.Solution()
	if err != nil {
		t.s.corruptReads.Add(1)
		return Hit{}, false
	}
	return Hit{Solution: sol}, true
}

// Save implements Tiered.
func (t *Solutions) Save(ctx context.Context, fingerprint string, sol *core.Solution, solveErr error) {
	if !persistable(solveErr) {
		return
	}
	rec := solutionRecord{ModelVersion: core.ModelVersion}
	switch {
	case solveErr != nil:
		rec.NoSolution = true
		rec.ErrText = solveErr.Error()
	case sol == nil || sol.Data == nil:
		return
	default:
		rec.Projection = sol.Projection()
	}
	val, err := json.Marshal(rec)
	if err != nil {
		return
	}
	// Write faults (chaos or I/O) are dropped by contract: the result
	// is already correct in memory, only durability is lost.
	_ = t.s.Put(ctx, solutionKey(fingerprint), val)
}

// noSolutionError rehydrates a persisted ErrNoSolution verdict with
// its original text while still satisfying
// errors.Is(err, core.ErrNoSolution), so HTTP 422 mapping and error
// strings are byte-identical across a restart.
type noSolutionError struct{ msg string }

func (e *noSolutionError) Error() string { return e.msg }

func (e *noSolutionError) Is(target error) bool { return target == core.ErrNoSolution }

func rehydrateNoSolution(msg string) error {
	if msg == "" || msg == core.ErrNoSolution.Error() {
		return core.ErrNoSolution
	}
	return &noSolutionError{msg: msg}
}
