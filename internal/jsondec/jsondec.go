// Package jsondec decodes the JSON cactid writes for its own types,
// without encoding/json's reflection walk. The fabric wire
// (internal/fabric) and the durable tier's records (internal/store)
// both carry core.Spec and core.Projection values: a worker decodes
// every batch request, a coordinator every reply, and a tier-1 hit
// one record, and encoding/json's decoding of them cost about as much
// as a solve or a store read. Decode and the typed switches here fill
// the same structs json.Unmarshal fills, by one field switch per
// type, under encoding/json's rules:
//
//   - Any JSON whitespace is accepted, so an indented body decodes like
//     a compact one. The input is one value with nothing but
//     whitespace after it.
//   - A string with an escape, a control byte or a non-ASCII byte is
//     unescaped by json.Unmarshal itself; a number's bytes are
//     checked against the JSON grammar and converted by strconv
//     exactly as encoding/json converts them.
//   - null leaves a scalar or struct alone and clears a pointer or
//     slice; a repeated key decodes into what the earlier one left,
//     and an array decodes into the slice's existing elements.
//   - Nesting deeper than encoding/json's limit of MaxDepth is
//     rejected.
//   - A strict decoder rejects unknown keys, as encoding/json does
//     with DisallowUnknownFields; otherwise they are skipped after
//     their grammar is checked, so a newer writer may add fields.
//
// encoding/json's case-insensitive key matching is not reproduced:
// only cactid's own json.Marshal writes these bodies, and it spells
// every key exactly. A key that matches a field only when case is
// folded is rejected rather than skipped, so the decoder never
// accepts a body encoding/json would reject.
package jsondec

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"cactid/internal/array"
	"cactid/internal/core"
	"cactid/internal/tech"
)

// MaxDepth is encoding/json's nesting limit.
const MaxDepth = 10000

// Decoder reads one JSON body. Its methods and the generic functions
// below each consume one value at the decoder's position.
type Decoder struct {
	data   []byte
	pos    int
	depth  int  // open objects and arrays
	strict bool // reject unknown keys
}

// Decode decodes data as the one value value consumes; only
// whitespace may follow it. strict rejects every unknown key.
func Decode(data []byte, strict bool, value func(*Decoder) error) error {
	var d Decoder
	d.Reset(data, strict)
	if err := value(&d); err != nil {
		return err
	}
	return d.End()
}

// Reset starts d on data, as Decode does. A caller that decodes with
// its own Decoder value, and calls End after the one value, keeps the
// decoder on its stack: Decode's callback makes it escape.
func (d *Decoder) Reset(data []byte, strict bool) {
	*d = Decoder{data: data, strict: strict}
}

// End reports an error unless only whitespace follows the value.
func (d *Decoder) End() error {
	if d.peek(); d.pos != len(d.data) {
		return d.fail("invalid character %q after top-level value", d.data[d.pos])
	}
	return nil
}

// Keys returns the JSON keys encoding/json gives the fields of v, a
// struct, with the fields of an untagged embedded struct in its
// place: the list Unknown tells a case-folded spelling of a field
// from an unknown key by.
func Keys(v any) []string { return keys(reflect.TypeOf(v)) }

func keys(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name != "":
			out = append(out, name)
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			out = append(out, keys(f.Type)...)
		default:
			out = append(out, f.Name)
		}
	}
	return out
}

func (d *Decoder) fail(format string, args ...any) error {
	return fmt.Errorf("jsondec: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *Decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit (null, true or false) when it comes next.
func (d *Decoder) literal(lit string) bool {
	if d.peek(); len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// open consumes the delimiter that starts an object or array.
func (d *Decoder) open(delim byte, what string) error {
	if d.peek() != delim {
		return d.fail("expected %s", what)
	}
	d.pos++
	if d.depth++; d.depth > MaxDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// next consumes the comma between two members or elements, or the
// closing delimiter; more reports which.
func (d *Decoder) next(end byte) (more bool, err error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case end:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.fail("expected ',' or %q", end)
}

// Object decodes an object, calling member with each key and the
// decoder at that key's value, which member must consume. null is
// accepted and calls nothing, as encoding/json leaves a struct alone.
func (d *Decoder) Object(member func(key []byte) error) error {
	if d.literal("null") {
		return nil
	}
	if err := d.open('{', "object"); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for more := true; more; {
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail("expected ':' after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// array decodes an array, calling elem with each index and the
// decoder at that element, which elem must consume.
func (d *Decoder) array(elem func(i int) error) error {
	if err := d.open('[', "array"); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for i, more := 0, true; more; i++ {
		if err := elem(i); err != nil {
			return err
		}
		var err error
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	return nil
}

// Slice decodes an array into *p as encoding/json does: null clears
// it, [] makes it empty and non-nil, and element i decodes into what
// the slice already holds at i, within its capacity.
func Slice[T any](d *Decoder, p *[]T, elem func(*T) error) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	s, n := *p, 0
	err := d.array(func(i int) error {
		if i < cap(s) {
			s = s[:i+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		n = i + 1
		return elem(&s[i])
	})
	if n == 0 {
		s = []T{}
	}
	*p = s[:n]
	return err
}

// Ptr decodes into **p as encoding/json does: null clears it, and any
// other value decodes into the pointee, allocated when nil.
func Ptr[T any](d *Decoder, p **T, elem func(*T) error) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(T)
	}
	return elem(*p)
}

// Unknown handles a key that no field of the object, whose keys are
// fields, spells exactly.
func (d *Decoder) Unknown(key []byte, fields []string) error {
	if d.strict {
		return d.fail("unknown field %q", key)
	}
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			return d.fail("field %q matches key %q only with case folded", key, f)
		}
	}
	return d.skip()
}

// skip consumes one value of any type, checked against the JSON
// grammar.
func (d *Decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.Object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(func(int) error { return d.skip() })
	case c == '"':
		lit, plain, err := d.stringLiteral()
		if err == nil && !plain && !json.Valid(lit) {
			err = d.fail("invalid string literal")
		}
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case d.literal("null"), d.literal("true"), d.literal("false"):
		return nil
	}
	return d.fail("expected value")
}

// stringLiteral consumes a string literal and returns it, quotes
// included. plain reports that it is printable ASCII with no escape,
// so its bytes are its value.
func (d *Decoder) stringLiteral() (lit []byte, plain bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("expected string")
	}
	start := d.pos
	plain = true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return nil, false, d.fail("unterminated string")
}

// key returns an object key: the literal's own bytes when plain,
// else encoding/json's unescaping of it.
func (d *Decoder) key() ([]byte, error) {
	lit, plain, err := d.stringLiteral()
	switch {
	case err != nil:
		return nil, err
	case plain:
		return lit[1 : len(lit)-1], nil
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// String decodes a string field.
func (d *Decoder) String(p *string) error {
	if d.literal("null") {
		return nil
	}
	lit, plain, err := d.stringLiteral()
	switch {
	case err != nil:
		return err
	case plain:
		*p = string(lit[1 : len(lit)-1])
		return nil
	}
	// Unmarshal into a local: handing it p would move *p's owner to
	// the heap.
	var v string
	if err := json.Unmarshal(lit, &v); err != nil {
		return err
	}
	*p = v
	return nil
}

// Bool decodes a bool field.
func (d *Decoder) Bool(p *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return d.fail("expected bool")
	}
	return nil
}

// number consumes a number literal that follows the JSON grammar.
func (d *Decoder) number() ([]byte, error) {
	d.peek()
	data, start := d.data, d.pos
	if d.pos < len(data) && data[d.pos] == '-' {
		d.pos++
	}
	digits := func() int {
		from := d.pos
		for d.pos < len(data) && '0' <= data[d.pos] && data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos - from
	}
	switch {
	case d.pos < len(data) && data[d.pos] == '0':
		d.pos++
	case digits() == 0:
		return nil, d.fail("expected number")
	}
	if d.pos < len(data) && data[d.pos] == '.' {
		if d.pos++; digits() == 0 {
			return nil, d.fail("expected digit after decimal point")
		}
	}
	if d.pos < len(data) && (data[d.pos] == 'e' || data[d.pos] == 'E') {
		if d.pos++; d.pos < len(data) && (data[d.pos] == '+' || data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return nil, d.fail("expected digit in exponent")
		}
	}
	return data[start:d.pos], nil
}

// Int decodes an int-kinded field as encoding/json does: a literal
// strconv.ParseInt accepts, in the range of the field's type.
func Int[T ~int | ~int64](d *Decoder, p *T) error {
	if d.literal("null") {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(T(n)) != n {
		return d.fail("cannot decode number %s into %T", lit, *p)
	}
	*p = T(n)
	return nil
}

// float decodes a float64 field.
func (d *Decoder) float(p *float64) error {
	if d.literal("null") {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.fail("number %s overflows float64", lit)
	}
	*p = f
	return nil
}

// The field switches of the types cactid stores and sends.

var (
	projectionKeys = Keys(core.Projection{})
	specKeys       = Keys(core.Spec{})
	weightsKeys    = Keys(core.Weights{})
	orgKeys        = Keys(array.Org{})
)

// Projection decodes a core.Projection object, as the fabric reply
// nests it.
func (d *Decoder) Projection(p *core.Projection) error {
	return d.Object(func(key []byte) error {
		return d.ProjectionMember(p, key, projectionKeys)
	})
}

// ProjectionMember decodes the value of key, a member of an object
// that holds p's fields among others, such as a store record whose
// projection keys sit flat beside its own. A key no projection field
// spells goes to Unknown with keys, all of the object's keys.
func (d *Decoder) ProjectionMember(p *core.Projection, key []byte, keys []string) error {
	switch string(key) {
	case "spec":
		return Ptr(d, &p.Spec, d.Spec)
	case "access_time_s":
		return d.float(&p.AccessTime)
	case "random_cycle_s":
		return d.float(&p.RandomCycle)
	case "interleave_cycle_s":
		return d.float(&p.InterleaveCycle)
	case "area_m2":
		return d.float(&p.Area)
	case "bank_area_m2":
		return d.float(&p.BankArea)
	case "area_efficiency":
		return d.float(&p.AreaEff)
	case "read_energy_j":
		return d.float(&p.EReadPerAccess)
	case "write_energy_j":
		return d.float(&p.EWritePerAccess)
	case "leakage_w":
		return d.float(&p.LeakagePower)
	case "refresh_w":
		return d.float(&p.RefreshPower)
	case "write_time_s":
		return d.float(&p.WriteTime)
	case "write_endurance_cycles":
		return d.float(&p.WriteEndurance)
	case "data_org":
		return Ptr(d, &p.DataOrg, d.org)
	case "data_pipeline_stages":
		return Int(d, &p.DataPipelineStages)
	case "tag_org":
		return Ptr(d, &p.TagOrg, d.org)
	}
	return d.Unknown(key, keys)
}

// Spec decodes a core.Spec object. It is kept from being inlined:
// compiled in another package, its closures passed to Ptr escape, and
// every spec would allocate two of them.
//
//go:noinline
func (d *Decoder) Spec(s *core.Spec) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "Node":
			return Int(d, &s.Node)
		case "RAM":
			return Int(d, &s.RAM)
		case "Technology":
			return d.String(&s.Technology)
		case "CapacityBytes":
			return Int(d, &s.CapacityBytes)
		case "BlockBytes":
			return Int(d, &s.BlockBytes)
		case "Associativity":
			return Int(d, &s.Associativity)
		case "Banks":
			return Int(d, &s.Banks)
		case "IsCache":
			return d.Bool(&s.IsCache)
		case "Mode":
			return Int(d, &s.Mode)
		case "TagRAM":
			return Ptr(d, &s.TagRAM, func(p *tech.RAMType) error { return Int(d, p) })
		case "PageBits":
			return Int(d, &s.PageBits)
		case "MaxPipelineStages":
			return Int(d, &s.MaxPipelineStages)
		case "MaxAreaConstraint":
			return d.float(&s.MaxAreaConstraint)
		case "MaxAcctimeConstraint":
			return d.float(&s.MaxAcctimeConstraint)
		case "MaxRepeaterSlack":
			return d.float(&s.MaxRepeaterSlack)
		case "Weights":
			return Ptr(d, &s.Weights, d.weights)
		case "SleepTransistors":
			return d.Bool(&s.SleepTransistors)
		case "Ports":
			return Int(d, &s.Ports)
		case "ECC":
			return d.Bool(&s.ECC)
		case "IncludeBankRouting":
			return d.Bool(&s.IncludeBankRouting)
		case "PhysicalAddressBits":
			return Int(d, &s.PhysicalAddressBits)
		}
		return d.Unknown(key, specKeys)
	})
}

func (d *Decoder) weights(w *core.Weights) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "DynamicEnergy":
			return d.float(&w.DynamicEnergy)
		case "LeakagePower":
			return d.float(&w.LeakagePower)
		case "RandomCycle":
			return d.float(&w.RandomCycle)
		case "InterleaveCycle":
			return d.float(&w.InterleaveCycle)
		}
		return d.Unknown(key, weightsKeys)
	})
}

func (d *Decoder) org(o *array.Org) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "Rows":
			return Int(d, &o.Rows)
		case "Cols":
			return Int(d, &o.Cols)
		case "Mux":
			return Int(d, &o.Mux)
		case "MatsPerSubbank":
			return Int(d, &o.MatsPerSubbank)
		case "Subbanks":
			return Int(d, &o.Subbanks)
		case "Mats":
			return Int(d, &o.Mats)
		}
		return d.Unknown(key, orgKeys)
	})
}
