package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
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
	b = appendFloatField(b, "|area=", c.MaxAreaConstraint)
	b = appendFloatField(b, "|acc=", c.MaxAcctimeConstraint)
	b = appendFloatField(b, "|slack=", c.MaxRepeaterSlack)
	b = appendFloatField(b, "|w=", c.Weights.DynamicEnergy)
	b = appendFloatField(b, ",", c.Weights.LeakagePower)
	b = appendFloatField(b, ",", c.Weights.RandomCycle)
	b = appendFloatField(b, ",", c.Weights.InterleaveCycle)
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

func appendIntField(b []byte, label string, v int64) []byte {
	return strconv.AppendInt(append(b, label...), v, 10)
}

// appendFloatField writes v as %.17g does: strconv's 'g' format with
// 17 significant digits, which fmt uses for every value, +Inf, -Inf
// and NaN included.
func appendFloatField(b []byte, label string, v float64) []byte {
	return strconv.AppendFloat(append(b, label...), v, 'g', 17, 64)
}
