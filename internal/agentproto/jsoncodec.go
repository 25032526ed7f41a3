package agentproto

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON-lines codec for the fixed Message schema: an append-style encoder
// that emits exactly json.Encoder's bytes and a single-pass decoder for
// the canonical lines it writes, sparing the default wire encoding/json's
// reflection. encoding/json stays the specification: whatever either side
// is not sure to treat identically — escapes, non-ASCII, whitespace,
// unknown, case-variant or reordered keys, null, non-finite floats — it
// *declines*, and the caller goes through encoding/json exactly as
// before, so no input is newly accepted, newly rejected or decoded
// differently (FuzzJSONCodecEquiv is the differential proof).

// appendJSONLine appends m's JSON-lines encoding to dst: the fast
// encoder's bytes, or encoding/json's when it declines. It is the single
// JSON encoder behind Codec.Send and the broadcast pre-encode.
func appendJSONLine(dst []byte, m *Message) ([]byte, error) {
	if b, ok := appendJSON(dst, m); ok {
		return b, nil
	}
	j, err := json.Marshal(*m) // a copy, so m itself never escapes
	if err != nil {
		return dst, err
	}
	return append(append(dst, j...), '\n'), nil
}

// jsonEnc accumulates one encoded line; ok turns false on a value the
// fast path declines.
type jsonEnc struct {
	b  []byte
	ok bool
}

// appendJSON appends the bytes json.Encoder emits for m — struct field
// order, omitempty, trailing newline — or reports false.
func appendJSON(dst []byte, m *Message) ([]byte, bool) {
	e := jsonEnc{b: append(dst, `{"type":`...), ok: true}
	e.quoted(string(m.Type))
	e.str(`,"job_id":`, m.JobID)
	e.num(`,"cores":`, m.Cores)
	e.num(`,"watts_per_core":`, m.WattsPerCore)
	e.num(`,"max_frac":`, m.MaxFrac)
	if m.Round != 0 {
		e.b = strconv.AppendInt(append(e.b, `,"round":`...), int64(m.Round), 10)
	}
	e.num(`,"price":`, m.Price)
	e.num(`,"target_w":`, m.TargetW)
	e.str(`,"trace":`, m.TraceID)
	e.num(`,"delta":`, m.Delta)
	e.num(`,"b":`, m.B)
	e.num(`,"reduction_cores":`, m.ReductionCores)
	e.num(`,"payment_rate":`, m.PaymentRate)
	e.str(`,"reason":`, m.Reason)
	return append(e.b, '}', '\n'), e.ok
}

func (e *jsonEnc) str(key, s string) {
	if s != "" {
		e.b = append(e.b, key...)
		e.quoted(s)
	}
}

// quoted appends s as a JSON string, declining any byte encoding/json
// would escape or repair: controls, quote, backslash, the HTML-escaped
// <>& and everything non-ASCII.
func (e *jsonEnc) quoted(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// num appends a non-zero float field in encoding/json's format: 'f'
// notation except below 1e-6 and from 1e21, where it is 'e' with a
// two-digit negative exponent's leading zero dropped (e-09 → e-9). NaN
// and ±Inf, which json.Marshal refuses, are declined.
func (e *jsonEnc) num(key string, f float64) {
	if f == 0 {
		return // omitempty, negative zero included
	}
	abs := math.Abs(f)
	e.ok = e.ok && abs <= math.MaxFloat64
	format := byte('f')
	if abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// jsonDec walks one scanned line; i is the byte before the next member
// ('{', then each ','), and is put past the end of b to decline the line.
type jsonDec struct {
	b []byte
	i int
}

// decodeJSON parses one scanned line in the canonical subset — the lines
// appendJSON writes: a flat object without whitespace, exact lower-case
// keys in struct field order, strings free of escapes, control and
// non-ASCII bytes, numbers in strict JSON grammar parsed by the strconv
// calls encoding/json itself makes, "type" one of the known constants.
// It reports false — never an error — on anything else.
func (c *Codec) decodeJSON(b []byte) (m Message, _ bool) {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return Message{}, false
	}
	d := jsonDec{b: b}
	if s, ok := d.str(`"type":`); ok {
		for _, t := range [...]MsgType{MsgPrice, MsgBid, MsgOrder, MsgLift, MsgHello, MsgError} {
			if string(s) == string(t) {
				m.Type = t // the constant: no string is made
			}
		}
		if m.Type == "" {
			return Message{}, false
		}
	}
	if s, ok := d.str(`"job_id":`); ok {
		m.JobID = string(s)
	}
	d.num(`"cores":`, &m.Cores)
	d.num(`"watts_per_core":`, &m.WattsPerCore)
	d.num(`"max_frac":`, &m.MaxFrac)
	if d.key(`"round":`) {
		lit, integer := d.number()
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if !integer || err != nil || int64(int(v)) != v {
			return Message{}, false
		}
		m.Round = int(v)
	}
	d.num(`"price":`, &m.Price)
	d.num(`"target_w":`, &m.TargetW)
	if s, ok := d.str(`"trace":`); ok {
		// Every bid of a round echoes one trace ID: reuse its string.
		if c.lastTrace != string(s) {
			c.lastTrace = string(s)
		}
		m.TraceID = c.lastTrace
	}
	d.num(`"delta":`, &m.Delta)
	d.num(`"b":`, &m.B)
	d.num(`"reduction_cores":`, &m.ReductionCores)
	d.num(`"payment_rate":`, &m.PaymentRate)
	if s, ok := d.str(`"reason":`); ok {
		m.Reason = string(s)
	}
	if d.i != len(b)-1 { // declined, or a member no field above claimed
		return Message{}, false
	}
	return m, true
}

// key reports whether the next member has key k (quotes and colon
// included) and steps onto its value.
func (d *jsonDec) key(k string) bool {
	i := d.i + 1
	if len(d.b)-i < len(k) || (d.i > 0 && d.b[d.i] != ',') || d.b[i+1] != k[1] || string(d.b[i:i+len(k)]) != k {
		return false
	}
	d.i = i + len(k)
	return true
}

// str reads member k's value if k is next: a string with no escape,
// control or non-ASCII byte, or the line is declined.
func (d *jsonDec) str(k string) ([]byte, bool) {
	if !d.key(k) {
		return nil, false
	}
	b, i := d.b, d.i
	d.i = len(b) // declined unless the closing quote turns up
	if b[i] != '"' {
		return nil, false
	}
	for j := i + 1; j < len(b)-1 && b[j] >= 0x20 && b[j] < utf8.RuneSelf && b[j] != '\\'; j++ {
		if b[j] == '"' {
			d.i = j + 1
			return b[i+1 : j], true
		}
	}
	return nil, false
}

// num reads member k's value into f if k is next: a number ParseFloat
// takes without a range error, or the line is declined.
func (d *jsonDec) num(k string, f *float64) {
	if d.key(k) {
		lit, _ := d.number()
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.i = len(d.b)
		}
		*f = v
	}
}

// number reads a literal in strict JSON number grammar, nil on a
// violation, and reports whether it is a plain integer.
func (d *jsonDec) number() (lit []byte, integer bool) {
	b, i := d.b, d.i
	if b[i] == '-' {
		i++
	}
	j := scanDigits(b, i)
	if j == i || (b[i] == '0' && j > i+1) {
		return nil, false // no digits, or a leading zero
	}
	integer = true
	if b[j] == '.' {
		i, integer = j+1, false
		if j = scanDigits(b, i); j == i {
			return nil, false
		}
	}
	if b[j] == 'e' || b[j] == 'E' {
		i, integer = j+1, false
		if b[i] == '+' || b[i] == '-' {
			i++
		}
		if j = scanDigits(b, i); j == i {
			return nil, false
		}
	}
	lit, d.i = b[d.i:j], j
	return lit, integer
}

// scanDigits returns the index after the digits at b[i]; the line's
// closing brace is the sentinel that keeps this and every scan in bounds.
func scanDigits(b []byte, i int) int {
	for '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
