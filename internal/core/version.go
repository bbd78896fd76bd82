package core

// ModelVersion tags every durably persisted solver result
// (internal/store keys results by (ModelVersion, spec fingerprint)).
// It is bumped — by hand, in the same commit — whenever any change
// can move a published number by even one ulp: technology tables,
// circuit models, enumeration order, objective weights, float
// formatting. Stale store records written under an older version
// become unreachable rather than silently wrong.
//
// The bump discipline is policed mechanically: the 7-digit
// pinned-output tripwires (explore.TestSolvePinnedOutput,
// validate.Micron pins, study Table-3 pins) fail on any numeric
// drift, and explore.TestModelVersionTripwire ties a hash of those
// pinned outputs to this constant — so a numeric change cannot land
// without touching both the pins and ModelVersion.
//
// A change to the shape of a stored or wire type (a renamed key, a
// changed field type, a renumbered enum) needs a bump only when the
// tests of old bytes show that bytes written before it decode to
// different values: cactid-serve's TestWarmRestartParentStore,
// TestSweepJobRecordParentBytes and TestStatsEndpoint, fabric's
// TestWireDecodesParentBodies and TestWireDecodeMatchesEncodingJSON,
// and store's TestRecordDecodeMatchesEncodingJSON. While they pass,
// old records and peers read the same values and the version stays.
//
// Version history:
//
//	2 — pluggable technology providers: Spec gained the Technology
//	    axis, Solution gained WriteTime/WriteEndurance, and the
//	    persisted/wire record shapes grew accordingly. ITRS numbers
//	    are byte-identical to version 1 (the pinned-output digest did
//	    not move), but records written by mixed-technology fleets are
//	    not interpretable by version-1 readers.
//	1 — initial persisted-format version.
const ModelVersion = 2
