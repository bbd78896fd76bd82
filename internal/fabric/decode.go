package fabric

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

// The fabric wire's typed decoder. A worker decodes every batch's
// BatchRequest and the coordinator every BatchResponse, and
// encoding/json's reflection walk cost more than the solves the
// bodies carry. DecodeBatchRequest and DecodeBatchResponse fill the
// same structs json.Unmarshal fills, by one field switch per wire
// type, under encoding/json's rules:
//
//   - Any JSON whitespace is accepted, so an indented reply from an
//     older worker decodes like a compact one. The input is one value
//     with nothing but whitespace after it.
//   - A string with an escape, a control byte or a non-ASCII byte is
//     unescaped by json.Unmarshal itself; a number's bytes are
//     checked against the JSON grammar and converted by strconv
//     exactly as encoding/json converts them.
//   - null leaves a scalar or struct alone and clears a pointer or
//     slice; a repeated key decodes into what the earlier one left,
//     and an array decodes into the slice's existing elements.
//   - Nesting deeper than encoding/json's limit of 10000 is rejected.
//   - The request rejects unknown keys, as cactid-serve's decode does
//     with DisallowUnknownFields; the reply skips them after checking
//     their grammar, so a newer worker may add fields.
//
// encoding/json's case-insensitive key matching is not reproduced:
// only cactid's own json.Marshal writes this wire, and it spells
// every key exactly. A key that matches a field only when case is
// folded is rejected on both bodies rather than skipped, so the
// decoder never accepts a body encoding/json would reject.
// FuzzWireDecode holds the decoder to encoding/json.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// DecodeBatchRequest decodes a worker's ?wire=fabric request body.
func DecodeBatchRequest(data []byte) (BatchRequest, error) {
	var req BatchRequest
	err := decodeBody(data, true, "specs", func(d *wireDecoder) error {
		return decodeSlice(d, &req.Specs, d.spec)
	})
	return req, err
}

// DecodeBatchResponse decodes a worker's ?wire=fabric reply body.
func DecodeBatchResponse(data []byte) (BatchResponse, error) {
	var resp BatchResponse
	err := decodeBody(data, false, "results", func(d *wireDecoder) error {
		return decodeSlice(d, &resp.Results, d.result)
	})
	return resp, err
}

// decodeBody decodes a whole body: null, or an object whose one field
// is key, which field decodes. Only whitespace may follow.
func decodeBody(data []byte, strict bool, key string, field func(*wireDecoder) error) error {
	d := &wireDecoder{data: data, strict: strict}
	if !d.literal("null") {
		err := d.object(func(k []byte) error {
			if string(k) == key {
				return field(d)
			}
			return d.unknown(k, []string{key})
		})
		if err != nil {
			return err
		}
	}
	if d.peek(); d.pos != len(d.data) {
		return d.fail("invalid character %q after top-level value", d.data[d.pos])
	}
	return nil
}

// The JSON keys of each wire type as encoding/json names them, for
// telling a case-folded spelling of a field from an unknown key.
var (
	resultKeys   = wireKeys(WireResult{})
	solutionKeys = wireKeys(core.Projection{})
	specKeys     = wireKeys(core.Spec{})
	weightsKeys  = wireKeys(core.Weights{})
	orgKeys      = wireKeys(array.Org{})
)

func wireKeys(v any) []string {
	t := reflect.TypeOf(v)
	keys := make([]string, t.NumField())
	for i := range keys {
		f := t.Field(i)
		keys[i] = f.Name
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" {
			keys[i] = name
		}
	}
	return keys
}

type wireDecoder struct {
	data   []byte
	pos    int
	depth  int  // open objects and arrays
	strict bool // reject unknown keys
}

func (d *wireDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("fabric wire: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *wireDecoder) peek() byte {
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
func (d *wireDecoder) literal(lit string) bool {
	if d.peek(); len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// open consumes the delimiter that starts an object or array.
func (d *wireDecoder) open(delim byte, what string) error {
	if d.peek() != delim {
		return d.fail("expected %s", what)
	}
	d.pos++
	if d.depth++; d.depth > maxWireDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// next consumes the comma between two members or elements, or the
// closing delimiter; more reports which.
func (d *wireDecoder) next(end byte) (more bool, err error) {
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

// object decodes an object, calling member with each key and the
// decoder at that key's value, which member must consume.
func (d *wireDecoder) object(member func(key []byte) error) error {
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
func (d *wireDecoder) array(elem func(i int) error) error {
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

// decodeSlice decodes an array into *p as encoding/json does: null
// clears it, [] makes it empty and non-nil, and element i decodes
// into what the slice already holds at i, within its capacity.
func decodeSlice[T any](d *wireDecoder, p *[]T, elem func(*T) error) error {
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

// decodePtr decodes into **p as encoding/json does: null clears it,
// and any other value decodes into the pointee, allocated when nil.
func decodePtr[T any](d *wireDecoder, p **T, elem func(*T) error) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(T)
	}
	return elem(*p)
}

// unknown handles a key no field of the object spells exactly.
func (d *wireDecoder) unknown(key []byte, fields []string) error {
	if d.strict {
		return d.fail("unknown field %q", key)
	}
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			return d.fail("field %q matches wire key %q only with case folded", key, f)
		}
	}
	return d.skip()
}

// skip consumes one value of any type, checked against the JSON
// grammar.
func (d *wireDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
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
func (d *wireDecoder) stringLiteral() (lit []byte, plain bool, err error) {
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
func (d *wireDecoder) key() ([]byte, error) {
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

func (d *wireDecoder) str(p *string) error {
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
	return json.Unmarshal(lit, p)
}

func (d *wireDecoder) boolean(p *bool) error {
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
func (d *wireDecoder) number() ([]byte, error) {
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

// integerTo decodes an int-kinded field as encoding/json does: a
// literal strconv.ParseInt accepts, in the range of the field's type.
func integerTo[T ~int | ~int64](d *wireDecoder, p *T) error {
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

func (d *wireDecoder) float(p *float64) error {
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

// The field switches, one per wire type. A null struct is left as
// it is, as encoding/json leaves it.

func (d *wireDecoder) result(r *WireResult) error {
	if d.literal("null") {
		return nil
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "index":
			return integerTo(d, &r.Index)
		case "spec":
			return d.spec(&r.Spec)
		case "fingerprint":
			return d.str(&r.Fingerprint)
		case "cached":
			return d.boolean(&r.Cached)
		case "solution":
			return decodePtr(d, &r.Solution, d.solution)
		case "error":
			return d.str(&r.Error)
		case "error_kind":
			return d.str(&r.ErrorKind)
		}
		return d.unknown(key, resultKeys)
	})
}

func (d *wireDecoder) solution(p *core.Projection) error {
	if d.literal("null") {
		return nil
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "spec":
			return decodePtr(d, &p.Spec, d.spec)
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
			return decodePtr(d, &p.DataOrg, d.org)
		case "data_pipeline_stages":
			return integerTo(d, &p.DataPipelineStages)
		case "tag_org":
			return decodePtr(d, &p.TagOrg, d.org)
		}
		return d.unknown(key, solutionKeys)
	})
}

func (d *wireDecoder) spec(s *core.Spec) error {
	if d.literal("null") {
		return nil
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Node":
			return integerTo(d, &s.Node)
		case "RAM":
			return integerTo(d, &s.RAM)
		case "Technology":
			return d.str(&s.Technology)
		case "CapacityBytes":
			return integerTo(d, &s.CapacityBytes)
		case "BlockBytes":
			return integerTo(d, &s.BlockBytes)
		case "Associativity":
			return integerTo(d, &s.Associativity)
		case "Banks":
			return integerTo(d, &s.Banks)
		case "IsCache":
			return d.boolean(&s.IsCache)
		case "Mode":
			return integerTo(d, &s.Mode)
		case "TagRAM":
			return decodePtr(d, &s.TagRAM, func(p *tech.RAMType) error { return integerTo(d, p) })
		case "PageBits":
			return integerTo(d, &s.PageBits)
		case "MaxPipelineStages":
			return integerTo(d, &s.MaxPipelineStages)
		case "MaxAreaConstraint":
			return d.float(&s.MaxAreaConstraint)
		case "MaxAcctimeConstraint":
			return d.float(&s.MaxAcctimeConstraint)
		case "MaxRepeaterSlack":
			return d.float(&s.MaxRepeaterSlack)
		case "Weights":
			return decodePtr(d, &s.Weights, d.weights)
		case "SleepTransistors":
			return d.boolean(&s.SleepTransistors)
		case "Ports":
			return integerTo(d, &s.Ports)
		case "ECC":
			return d.boolean(&s.ECC)
		case "IncludeBankRouting":
			return d.boolean(&s.IncludeBankRouting)
		case "PhysicalAddressBits":
			return integerTo(d, &s.PhysicalAddressBits)
		}
		return d.unknown(key, specKeys)
	})
}

func (d *wireDecoder) weights(w *core.Weights) error {
	return d.object(func(key []byte) error {
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
		return d.unknown(key, weightsKeys)
	})
}

func (d *wireDecoder) org(o *array.Org) error {
	if d.literal("null") {
		return nil
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Rows":
			return integerTo(d, &o.Rows)
		case "Cols":
			return integerTo(d, &o.Cols)
		case "Mux":
			return integerTo(d, &o.Mux)
		case "MatsPerSubbank":
			return integerTo(d, &o.MatsPerSubbank)
		case "Subbanks":
			return integerTo(d, &o.Subbanks)
		case "Mats":
			return integerTo(d, &o.Mats)
		}
		return d.unknown(key, orgKeys)
	})
}
