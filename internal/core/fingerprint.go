package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"sync/atomic"
)

// Canonical returns a copy of the spec with every defaulted field
// resolved to its effective value: banks/associativity/ports floored
// at 1, optimization constraints and weights filled in, the tag RAM
// technology resolved (nil TagRAM means "same as data" for DRAM
// caches, SRAM otherwise) and cleared for plain memories. Two specs
// that drive the solver identically canonicalise to the same value,
// which is what Fingerprint hashes. It returns an error for specs the
// solver would reject.
func (s Spec) Canonical() (Spec, error) {
	c := s
	if err := c.normalize(); err != nil {
		return Spec{}, err
	}
	if c.Ports <= 0 {
		c.Ports = 1
	}
	// Detach pointer fields so the canonical spec shares no storage
	// with the input.
	w := *c.Weights
	c.Weights = &w
	if c.IsCache {
		r := c.tagRAM()
		c.TagRAM = &r
	} else {
		// Plain memories have no tag array: the field cannot affect
		// the solution.
		c.TagRAM = nil
	}
	return c, nil
}

// Fingerprint returns a canonical, normalisation-stable hash of the
// spec: two specs that differ only in defaulted fields (zero banks vs
// 1 bank, nil weights vs DefaultWeights, nil TagRAM vs its resolved
// technology, ...) fingerprint identically, and any field change that
// can alter the solver's answer changes the fingerprint. The result
// is a fixed-length hex string suitable as a cache or dedup key.
func (s Spec) Fingerprint() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	var in [256]byte
	sum := sha256.Sum256(c.appendHashInput(in[:0]))
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:]), nil
}

// appendHashInput appends the canonical spec's fingerprint input,
// spelled exactly as the format
//
//	node=%d|ram=%d|cap=%d|blk=%d|assoc=%d|banks=%d|cache=%t|mode=%d|tag=%d|page=%d|pipe=%d|area=%.17g|acc=%.17g|slack=%.17g|w=%.17g,%.17g,%.17g,%.17g|sleep=%t|ports=%d|ecc=%t|route=%t|pa=%d
//
// writes it (tag is -1 without a tag array), followed by |tech=%s for
// a non-default technology. Every persisted store key and golden
// fingerprint depends on these bytes.
func (c *Spec) appendHashInput(b []byte) []byte {
	tag := -1
	if c.TagRAM != nil {
		tag = int(*c.TagRAM)
	}
	b = appendIntField(b, "node=", int64(c.Node))
	b = appendIntField(b, "|ram=", int64(c.RAM))
	b = appendIntField(b, "|cap=", c.CapacityBytes)
	b = appendIntField(b, "|blk=", int64(c.BlockBytes))
	b = appendIntField(b, "|assoc=", int64(c.Associativity))
	b = appendIntField(b, "|banks=", int64(c.Banks))
	b = strconv.AppendBool(append(b, "|cache="...), c.IsCache)
	b = appendIntField(b, "|mode=", int64(c.Mode))
	b = appendIntField(b, "|tag=", int64(tag))
	b = appendIntField(b, "|page=", int64(c.PageBits))
	b = appendIntField(b, "|pipe=", int64(c.MaxPipelineStages))
	b = c.appendFloatSegment(b)
	b = strconv.AppendBool(append(b, "|sleep="...), c.SleepTransistors)
	b = appendIntField(b, "|ports=", int64(c.Ports))
	b = strconv.AppendBool(append(b, "|ecc="...), c.ECC)
	b = strconv.AppendBool(append(b, "|route="...), c.IncludeBankRouting)
	b = appendIntField(b, "|pa=", int64(c.PhysicalAddressBits))
	// The technology axis folds in only when it deviates from the
	// default ITRS family (normalize canonicalises the default to ""),
	// so every pre-provider fingerprint — including those pinned in
	// golden files and persisted store keys — is unchanged.
	if c.Technology != "" {
		b = append(append(b, "|tech="...), c.Technology...)
	}
	return b
}

// floatSegment is the spelled float segment of a fingerprint input,
// |area= through the last weight, keyed by the bits of its seven
// fields.
type floatSegment struct {
	bits [7]uint64
	text []byte
}

// lastFloats is the float segment last spelled. A grid varies a spec's
// integer fields and keeps its cuts, slack and weights, so consecutive
// fingerprints share the segment. Keying by bits keeps -0 and +0
// apart, as %.17g spells them differently.
var lastFloats atomic.Pointer[floatSegment]

// appendFloatSegment appends the canonical spec's cuts, repeater slack
// and weights as appendFloatField spells them, copying the memoized
// segment when its fields are the same.
func (c *Spec) appendFloatSegment(b []byte) []byte {
	w := c.Weights
	bits := [7]uint64{
		math.Float64bits(c.MaxAreaConstraint), math.Float64bits(c.MaxAcctimeConstraint),
		math.Float64bits(c.MaxRepeaterSlack),
		math.Float64bits(w.DynamicEnergy), math.Float64bits(w.LeakagePower),
		math.Float64bits(w.RandomCycle), math.Float64bits(w.InterleaveCycle),
	}
	if seg := lastFloats.Load(); seg != nil && seg.bits == bits {
		return append(b, seg.text...)
	}
	start := len(b)
	b = appendFloatField(b, "|area=", c.MaxAreaConstraint)
	b = appendFloatField(b, "|acc=", c.MaxAcctimeConstraint)
	b = appendFloatField(b, "|slack=", c.MaxRepeaterSlack)
	b = appendFloatField(b, "|w=", w.DynamicEnergy)
	b = appendFloatField(b, ",", w.LeakagePower)
	b = appendFloatField(b, ",", w.RandomCycle)
	b = appendFloatField(b, ",", w.InterleaveCycle)
	lastFloats.Store(&floatSegment{bits: bits, text: append([]byte(nil), b[start:]...)})
	return b
}

func appendIntField(b []byte, label string, v int64) []byte {
	return strconv.AppendInt(append(b, label...), v, 10)
}

// appendFloatField writes v as %.17g does: strconv's 'g' format with
// 17 significant digits, which fmt uses for every value, +Inf, -Inf
// and NaN included.
func appendFloatField(b []byte, label string, v float64) []byte {
	return strconv.AppendFloat(append(b, label...), v, 'g', 17, 64)
}
