package explore

import (
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"cactid/internal/array"
	"cactid/internal/core"
)

// SolutionJSON flattens a solution into the fields scripts consume.
// It is the reference for AppendSolutionJSON, which renders the same
// shape without building a map; production code renders through that.
func SolutionJSON(s *core.Solution) map[string]any {
	m := map[string]any{
		"ram":                s.Spec.RAM.String(),
		"node_nm":            int(s.Spec.Node),
		"capacity_bytes":     s.Spec.CapacityBytes,
		"block_bytes":        s.Spec.BlockBytes,
		"associativity":      s.Spec.Associativity,
		"banks":              s.Spec.Banks,
		"access_mode":        s.Spec.Mode.String(),
		"access_time_s":      s.AccessTime,
		"random_cycle_s":     s.RandomCycle,
		"interleave_cycle_s": s.InterleaveCycle,
		"area_m2":            s.Area,
		"bank_area_m2":       s.BankArea,
		"area_efficiency":    s.AreaEff,
		"read_energy_j":      s.EReadPerAccess,
		"write_energy_j":     s.EWritePerAccess,
		"leakage_w":          s.LeakagePower,
		"refresh_w":          s.RefreshPower,
		"data_organization":  s.Data.Org.String(),
		"pipeline_stages":    s.Data.PipelineStages,
	}
	if s.Tag != nil {
		m["tag_organization"] = s.Tag.Org.String()
	}
	// Technology-axis fields appear only when they carry information:
	// the default ITRS family (Technology == "" after normalize) and
	// its symmetric-write cells emit exactly the pre-provider shape,
	// keeping golden outputs and downstream parsers stable.
	if s.Spec.Technology != "" {
		m["technology"] = s.Spec.Technology
	}
	if s.WriteTime > 0 {
		m["write_time_s"] = s.WriteTime
	}
	if s.WriteEndurance > 0 {
		m["write_endurance_cycles"] = s.WriteEndurance
	}
	return m
}

// ResultJSON is SolutionJSON plus the sweep bookkeeping fields; for
// errored points it carries the spec identity and the error instead
// of metrics. It is the reference for AppendResultJSON.
func ResultJSON(r Result) map[string]any {
	var m map[string]any
	if r.Err != nil || r.Solution == nil {
		m = map[string]any{
			"ram":            r.Spec.RAM.String(),
			"node_nm":        int(r.Spec.Node),
			"capacity_bytes": r.Spec.CapacityBytes,
			"block_bytes":    r.Spec.BlockBytes,
			"associativity":  r.Spec.Associativity,
			"banks":          r.Spec.Banks,
			"access_mode":    r.Spec.Mode.String(),
		}
		if r.Spec.Technology != "" {
			m["technology"] = r.Spec.Technology
		}
		if r.Err != nil {
			m["error"] = r.Err.Error()
		}
	} else {
		m = SolutionJSON(r.Solution)
	}
	m["index"] = r.Index
	m["cached"] = r.Cached
	if r.Fingerprint != "" {
		m["fingerprint"] = r.Fingerprint
	}
	return m
}

// AppendSolutionJSON appends SolutionJSON(s) to dst byte for byte as
// json.MarshalIndent(SolutionJSON(s), prefix, indent) writes it, or as
// json.Marshal does when indent is empty. cmd/cactid -json and
// cactid-serve's /v1/solve both render through it, so the CLI and the
// HTTP API are byte-compatible for the same spec. A NaN or infinite
// metric returns encoding/json's *UnsupportedValueError and dst
// unchanged.
func AppendSolutionJSON(dst []byte, s *core.Solution, prefix, indent string) ([]byte, error) {
	e := jsonEnc{b: dst, prefix: prefix, indent: indent}
	var scratch [scratchBytes]byte
	e.solution(s, nil, scratch[:0])
	return e.finish(dst)
}

// AppendResultJSON appends ResultJSON(r) to dst with the layout and
// errors of AppendSolutionJSON.
func AppendResultJSON(dst []byte, r Result, prefix, indent string) ([]byte, error) {
	e := jsonEnc{b: dst, prefix: prefix, indent: indent}
	var scratch [scratchBytes]byte
	e.point(&r, scratch[:0])
	return e.finish(dst)
}

// AppendResultsJSON appends results as one JSON array in sweep order,
// each element as AppendResultJSON renders it; an empty set is `[]`.
// The array starts at dst's current position, so a caller nesting it
// one level into an indented object passes prefix+indent as prefix.
func AppendResultsJSON(dst []byte, results []Result, prefix, indent string) ([]byte, error) {
	e := jsonEnc{b: dst, prefix: prefix, indent: indent}
	var buf [scratchBytes]byte
	scratch := buf[:0]
	e.open('[')
	for i := range results {
		e.next()
		scratch = e.point(&results[i], scratch)
	}
	e.close(']')
	return e.finish(dst)
}

// jsonEnc appends JSON in encoding/json's layout: compact when indent
// is empty, otherwise MarshalIndent's newline, prefix and one indent
// per open object or array before every member and before a non-empty
// container's closing bracket. Object keys are written in
// encoding/json's sorted map-key order by the callers.
type jsonEnc struct {
	b              []byte
	prefix, indent string
	depth          int
	empty          bool  // the innermost open object or array has no members yet
	err            error // first unencodable value
}

// scratchBytes sizes the stack buffer a render call fills with the
// value table of each solution that has none of its own: a table is
// about 350 bytes, and a longer one grows onto the heap.
const scratchBytes = 512

// finish returns the appended bytes, or dst and the error when a value
// could not be encoded.
func (e *jsonEnc) finish(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

func (e *jsonEnc) newline() {
	if e.indent == "" {
		return
	}
	e.b = append(e.b, '\n')
	e.b = append(e.b, e.prefix...)
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, e.indent...)
	}
}

func (e *jsonEnc) open(bracket byte) {
	e.b = append(e.b, bracket)
	e.depth++
	e.empty = true
}

func (e *jsonEnc) close(bracket byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.empty = false
	e.b = append(e.b, bracket)
}

// next starts an array element or an object member.
func (e *jsonEnc) next() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

// key starts an object member; k must need no escaping.
func (e *jsonEnc) key(k string) {
	e.next()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
	if e.indent != "" {
		e.b = append(e.b, ' ')
	}
}

func (e *jsonEnc) intField(k string, v int64) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *jsonEnc) boolField(k string, v bool) {
	e.key(k)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *jsonEnc) stringField(k, v string) {
	e.key(k)
	e.b = appendJSONString(e.b, v)
}

// solutionKeys are SolutionJSON's keys in encoding/json's sorted
// order, the order a value table holds their values in. ResultJSON's
// cached member sorts after block_bytes, and its fingerprint and index
// members after data_organization.
var solutionKeys = [...]string{
	"access_mode", "access_time_s", "area_efficiency", "area_m2",
	"associativity", "bank_area_m2", "banks", "block_bytes",
	"capacity_bytes", "data_organization", "interleave_cycle_s",
	"leakage_w", "node_nm", "pipeline_stages", "ram", "random_cycle_s",
	"read_energy_j", "refresh_w", "tag_organization", "technology",
	"write_endurance_cycles", "write_energy_j", "write_time_s",
}

const (
	keyBlockBytes = 7 // solutionKeys index that cached follows
	keyDataOrg    = 9 // solutionKeys index that fingerprint and index follow
)

// tableWriter builds a value table: a solution's member values as the
// JSON text the renderer writes after each of solutionKeys, every value
// after its length as a uvarint, an absent member as length zero. The
// text does not depend on the layout, so a tier-0 entry keeps the one
// table its hits render from (entry.table). Its methods take and
// return it by value, which keeps a caller's stack buffer off the heap.
type tableWriter struct {
	t     []byte
	start int // where the open value begins
	// The first NaN or infinite value; no error value is built until
	// the table is done.
	unencodable bool
	bad         float64
}

// open reserves the next value's one-byte length slot.
func (w tableWriter) open() tableWriter {
	w.t = append(w.t, 0)
	w.start = len(w.t)
	return w
}

// close writes the open value's length into its slot, widening the
// slot for a value of 128 bytes or more.
func (w tableWriter) close() tableWriter {
	n := len(w.t) - w.start
	if n < 0x80 {
		w.t[w.start-1] = byte(n)
		return w
	}
	var l [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(l[:], uint64(n))
	w.t = append(w.t, l[1:k]...)
	copy(w.t[w.start-1+k:], w.t[w.start:w.start+n])
	copy(w.t[w.start-1:], l[:k])
	return w
}

func (w tableWriter) absent() tableWriter {
	w.t = append(w.t, 0)
	return w
}

func (w tableWriter) integer(v int64) tableWriter {
	w = w.open()
	w.t = strconv.AppendInt(w.t, v, 10)
	return w.close()
}

func (w tableWriter) str(v string) tableWriter {
	w = w.open()
	w.t = appendJSONString(w.t, v)
	return w.close()
}

// org writes an organization as appendJSONString writes its String.
func (w tableWriter) org(o array.Org) tableWriter {
	w = w.open()
	w.t = append(o.Append(append(w.t, '"')), '"')
	return w.close()
}

// float writes v as encoding/json does: the shortest round-tripping
// decimal, in exponent form below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded (e-9, not e-09).
func (w tableWriter) float(v float64) tableWriter {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if !w.unencodable {
			w.unencodable, w.bad = true, v
		}
		return w.absent()
	}
	w = w.open()
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.t = strconv.AppendFloat(w.t, v, format, -1, 64)
	if n := len(w.t); format == 'e' && w.t[n-4] == 'e' && w.t[n-3] == '-' && w.t[n-2] == '0' {
		w.t[n-2] = w.t[n-1]
		w.t = w.t[:n-1]
	}
	return w.close()
}

// appendValues appends s's value table to t, or returns the error of
// its first unencodable value in key order.
func appendValues(t []byte, s *core.Solution) ([]byte, error) {
	w := tableWriter{t: t}
	w = w.str(s.Spec.Mode.String())
	w = w.float(s.AccessTime)
	w = w.float(s.AreaEff)
	w = w.float(s.Area)
	w = w.integer(int64(s.Spec.Associativity))
	w = w.float(s.BankArea)
	w = w.integer(int64(s.Spec.Banks))
	w = w.integer(int64(s.Spec.BlockBytes))
	w = w.integer(s.Spec.CapacityBytes)
	w = w.org(s.Data.Org)
	w = w.float(s.InterleaveCycle)
	w = w.float(s.LeakagePower)
	w = w.integer(int64(s.Spec.Node))
	w = w.integer(int64(s.Data.PipelineStages))
	w = w.str(s.Spec.RAM.String())
	w = w.float(s.RandomCycle)
	w = w.float(s.EReadPerAccess)
	w = w.float(s.RefreshPower)
	if s.Tag != nil {
		w = w.org(s.Tag.Org)
	} else {
		w = w.absent()
	}
	if s.Spec.Technology != "" {
		w = w.str(s.Spec.Technology)
	} else {
		w = w.absent()
	}
	if s.WriteEndurance > 0 {
		w = w.float(s.WriteEndurance)
	} else {
		w = w.absent()
	}
	w = w.float(s.EWritePerAccess)
	if s.WriteTime > 0 {
		w = w.float(s.WriteTime)
	} else {
		w = w.absent()
	}
	if w.unencodable {
		return w.t, &json.UnsupportedValueError{Value: reflect.ValueOf(w.bad), Str: strconv.FormatFloat(w.bad, 'g', -1, 64)}
	}
	return w.t, nil
}

// values returns the value table s renders from, and the call's
// scratch table, grown or not, for its next solution. A tier-0 hit's
// entry fills its own table on the first render and keeps it; any
// other solution fills scratch. The table is nil after an unencodable
// value is recorded.
func (e *jsonEnc) values(s *core.Solution, r *Result, scratch []byte) (table, next []byte) {
	hit := r != nil && r.hit != nil && r.hit.sol == s
	if hit {
		if t := r.hit.table.Load(); t != nil {
			return *t, scratch
		}
	}
	t, err := appendValues(scratch[:0], s)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return nil, t
	}
	if hit {
		// Renders that race build identical tables; one is kept.
		own := append([]byte(nil), t...)
		if !r.hit.table.CompareAndSwap(nil, &own) {
			return *r.hit.table.Load(), t
		}
		return own, t
	}
	return t, t
}

// solution writes SolutionJSON's members, plus ResultJSON's cached,
// fingerprint and index members when r is non-nil, in sorted key
// order, each value copied from s's value table. It returns the
// call's scratch table, as values does.
func (e *jsonEnc) solution(s *core.Solution, r *Result, scratch []byte) []byte {
	t, scratch := e.values(s, r, scratch)
	if t == nil {
		return scratch
	}
	e.open('{')
	for i, k := range solutionKeys {
		n, w := uint64(t[0]), 1
		if n >= 0x80 {
			n, w = binary.Uvarint(t)
		}
		if v := t[w : w+int(n)]; len(v) > 0 {
			e.key(k)
			e.b = append(e.b, v...)
		}
		t = t[w+int(n):]
		switch {
		case r == nil:
		case i == keyBlockBytes:
			e.boolField("cached", r.Cached)
		case i == keyDataOrg:
			if r.Fingerprint != "" {
				e.stringField("fingerprint", r.Fingerprint)
			}
			e.intField("index", int64(r.Index))
		}
	}
	e.close('}')
	return scratch
}

// point writes ResultJSON(*r): a solved point's solution, or an
// errored point's spec identity and error, in sorted key order. It
// returns the call's scratch table, as solution does.
func (e *jsonEnc) point(r *Result, scratch []byte) []byte {
	if r.Err == nil && r.Solution != nil {
		return e.solution(r.Solution, r, scratch)
	}
	s := &r.Spec
	e.open('{')
	e.stringField("access_mode", s.Mode.String())
	e.intField("associativity", int64(s.Associativity))
	e.intField("banks", int64(s.Banks))
	e.intField("block_bytes", int64(s.BlockBytes))
	e.boolField("cached", r.Cached)
	e.intField("capacity_bytes", s.CapacityBytes)
	if r.Err != nil {
		e.stringField("error", r.Err.Error())
	}
	if r.Fingerprint != "" {
		e.stringField("fingerprint", r.Fingerprint)
	}
	e.intField("index", int64(r.Index))
	e.intField("node_nm", int64(s.Node))
	e.stringField("ram", s.RAM.String())
	if s.Technology != "" {
		e.stringField("technology", s.Technology)
	}
	e.close('}')
	return scratch
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes strings:
// `"` and `\` backslash-escaped, control bytes as \b \f \n \r \t or
// \u00XX, the HTML-sensitive <, > and & as \u00XX, each invalid UTF-8
// byte as the escaped replacement character U+FFFD, and the line and
// paragraph separators U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// csvHeader is the fixed column set of WriteCSV.
var csvHeader = []string{
	"index", "fingerprint", "ram", "node_nm", "capacity_bytes",
	"block_bytes", "associativity", "banks", "access_mode",
	"access_time_s", "random_cycle_s", "interleave_cycle_s",
	"area_m2", "area_efficiency", "read_energy_j", "write_energy_j",
	"leakage_w", "refresh_w", "data_organization", "pipeline_stages",
	"cached", "error",
}

func fg(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes one row per sweep point, in sweep order, mirroring
// internal/study's CSV exports. Errored points keep their spec
// columns and fill the error column.
func WriteCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	rec := make([]string, 0, len(csvHeader))
	for _, r := range results {
		rec = append(rec[:0],
			strconv.Itoa(r.Index), r.Fingerprint,
			r.Spec.RAM.String(), strconv.Itoa(int(r.Spec.Node)),
			strconv.FormatInt(r.Spec.CapacityBytes, 10),
			strconv.Itoa(r.Spec.BlockBytes), strconv.Itoa(r.Spec.Associativity),
			strconv.Itoa(r.Spec.Banks), r.Spec.Mode.String(),
		)
		if r.Solution != nil {
			s := r.Solution
			rec = append(rec,
				fg(s.AccessTime), fg(s.RandomCycle), fg(s.InterleaveCycle),
				fg(s.Area), fg(s.AreaEff), fg(s.EReadPerAccess), fg(s.EWritePerAccess),
				fg(s.LeakagePower), fg(s.RefreshPower),
				s.Data.Org.String(), strconv.Itoa(s.Data.PipelineStages))
		} else {
			rec = append(rec, "", "", "", "", "", "", "", "", "", "", "")
		}
		rec = append(rec, strconv.FormatBool(r.Cached))
		if r.Err != nil {
			rec = append(rec, r.Err.Error())
		} else {
			rec = append(rec, "")
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
