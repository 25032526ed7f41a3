package agentproto

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// checkDecodeEquiv is the decoder half of the differential contract:
// whenever the fast decoder accepts a line, json.Unmarshal accepts it too
// and yields the identical Message. It returns whether the line was
// accepted.
func checkDecodeEquiv(t *testing.T, line []byte) bool {
	t.Helper()
	got, ok := new(Codec).decodeJSON(line)
	if !ok {
		if got != (Message{}) {
			t.Fatalf("declined %q but returned %+v", line, got)
		}
		return false
	}
	var want Message
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("fast decoder accepted %q, encoding/json rejects it: %v", line, err)
	}
	if !sameMessage(got, want) {
		t.Fatalf("decode of %q diverges:\n fast %+v\n json %+v", line, got, want)
	}
	return true
}

// checkEncodeEquiv is the encoder half: whenever the fast encoder accepts
// a message its bytes are json.Marshal's plus the newline, and it declines
// every message json.Marshal rejects. It returns whether m was accepted.
func checkEncodeEquiv(t *testing.T, m Message) bool {
	t.Helper()
	want, err := json.Marshal(m)
	got, ok := appendJSON(nil, &m)
	if err != nil {
		if ok {
			t.Fatalf("fast encoder accepted %+v, json.Marshal rejects it: %v", m, err)
		}
		return false
	}
	if ok && !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("encode of %+v diverges:\n fast %q\n json %q", m, got, want)
	}
	return ok
}

// sameMessage is == with floats compared by bits, so a -0 decoded as +0
// (or the reverse) is a difference.
func sameMessage(a, b Message) bool {
	bits := func(m Message) [9]uint64 {
		var u [9]uint64
		for i, f := range [...]float64{m.Cores, m.WattsPerCore, m.MaxFrac, m.Price, m.TargetW,
			m.Delta, m.B, m.ReductionCores, m.PaymentRate} {
			u[i] = math.Float64bits(f)
		}
		return u
	}
	return a == b && bits(a) == bits(b)
}

// hostileLines is the decoder's seed corpus: one line per class the fast
// path must decline (encoding/json decides each), plus the edge cases it
// takes itself.
var hostileLines = []struct {
	class, line string
	fast        bool // the fast decoder accepts it
}{
	{"canonical bid", `{"type":"bid","round":3,"trace":"m1.r3","delta":1.5,"b":0.25}`, true},
	{"canonical hello", `{"type":"hello","job_id":"j1","cores":64,"watts_per_core":125,"max_frac":0.4}`, true},
	{"empty object", `{}`, false},
	{"negative zero", `{"type":"bid","delta":-0}`, true},
	{"exponent forms", `{"type":"bid","delta":1E+2,"b":-2.5e-9}`, true},
	{"underflow to zero", `{"type":"bid","b":1e-999}`, true},
	{"keys out of order", `{"b":1,"round":2,"type":"bid"}`, false},
	{"no type", `{"round":2,"trace":"orphan"}`, true},
	{"empty strings", `{"type":"error","job_id":"","reason":""}`, true},
	{"capitalised key", `{"Type":"bid","round":1}`, false},
	{"upper-case key", `{"type":"bid","DELTA":1.5}`, false},
	{"unknown key", `{"type":"bid","extra":1}`, false},
	{"nested unknown field", `{"type":"bid","x":{"y":[1,2,{"z":null}]}}`, false},
	{"nested known field", `{"type":"bid","delta":{"v":1}}`, false},
	{"unknown type value", `{"type":"Bid","round":1}`, false},
	{"key name as type value", `{"type":"b","b":1}`, false},
	{"type value as key", `{"bid":"type"}`, false},
	{"empty type", `{"type":""}`, false},
	{"round with fraction", `{"type":"bid","round":1.0}`, false},
	{"round with exponent", `{"type":"bid","round":1e2}`, false},
	{"round leading zero", `{"type":"bid","round":01}`, false},
	{"round overflow", `{"type":"bid","round":9223372036854775808}`, false},
	{"bare fraction", `{"type":"bid","b":.5}`, false},
	{"dangling point", `{"type":"bid","b":1.}`, false},
	{"plus sign", `{"type":"bid","b":+1}`, false},
	{"bare minus", `{"type":"bid","b":-}`, false},
	{"dangling exponent", `{"type":"bid","b":1e}`, false},
	{"float overflow", `{"type":"bid","round":1,"b":1e999}`, false},
	{"hex float", `{"type":"bid","b":0x1p-2}`, false},
	{"infinity literal", `{"type":"bid","b":Inf}`, false},
	{"null value", `{"type":"bid","delta":null}`, false},
	{"null type", `{"type":null}`, false},
	{"bool value", `{"type":"bid","b":true}`, false},
	{"string for number", `{"type":"bid","b":"1"}`, false},
	{"number for string", `{"type":"hello","job_id":5}`, false},
	{"duplicate key", `{"type":"bid","b":1,"b":2}`, false},
	{"duplicate type", `{"type":"bid","type":"price"}`, false},
	{"string escape", `{"type":"error","reason":"a\"b"}`, false},
	{"unicode escape", `{"type":"bid","trace":"` + "\\u0041" + `"}`, false},
	{"non-ASCII string", `{"type":"error","reason":"евикт"}`, false},
	{"control byte in string", "{\"type\":\"error\",\"reason\":\"a\tb\"}", false},
	{"trailing garbage", `{"type":"bid","round":1}x`, false},
	{"second object", `{"type":"bid"}{"type":"bid"}`, false},
	{"trailing comma", `{"type":"bid",}`, false},
	{"leading comma", `{,"type":"bid"}`, false},
	{"missing colon", `{"type""bid"}`, false},
	{"missing value", `{"type":}`, false},
	{"unterminated string", `{"type":"bid}`, false},
	{"truncated object", `{"type":"bid","round":1`, false},
	{"leading whitespace", ` {"type":"bid"}`, false},
	{"trailing whitespace", `{"type":"bid"} `, false},
	{"inner whitespace", `{"type": "bid"}`, false},
	{"array", `[1,2]`, false},
	{"not json", `not json`, false},
	{"empty line", ``, false},
	{"lone brace", `{`, false},
	{"lone quote in braces", `{"}`, false},
}

// TestJSONFastPathDeclines names each class of input the fast decoder
// and encoder hand to encoding/json, and holds every accepted one to the
// differential contract.
func TestJSONFastPathDeclines(t *testing.T) {
	for _, tc := range hostileLines {
		t.Run("decode/"+tc.class, func(t *testing.T) {
			if got := checkDecodeEquiv(t, []byte(tc.line)); got != tc.fast {
				t.Errorf("fast decoder accepted=%v on %q, want %v", got, tc.line, tc.fast)
			}
		})
	}
	for _, tc := range []struct {
		class string
		msg   Message
		fast  bool
	}{
		{"canonical price", Message{Type: MsgPrice, Round: 2, Price: 0.5, TargetW: 400, TraceID: "m7.r2"}, true},
		{"zero message", Message{}, true},
		{"negative zero omitted", Message{Type: MsgBid, Delta: math.Copysign(0, -1)}, true},
		{"small and large exponents", Message{Type: MsgBid, Delta: 1e-7, B: 1e21, Price: 5e-324}, true},
		{"DEL byte", Message{Type: MsgError, Reason: "a\x7fb"}, true},
		{"NaN", Message{Type: MsgBid, B: math.NaN()}, false},
		{"+Inf", Message{Type: MsgPrice, Price: math.Inf(1)}, false},
		{"-Inf", Message{Type: MsgPrice, TargetW: math.Inf(-1)}, false},
		{"quote in string", Message{Type: MsgError, Reason: `a"b`}, false},
		{"backslash in string", Message{Type: MsgError, Reason: `a\b`}, false},
		{"HTML-escaped byte", Message{Type: MsgError, Reason: "a<b"}, false},
		{"ampersand", Message{Type: MsgHello, JobID: "a&b"}, false},
		{"control byte", Message{Type: MsgBid, TraceID: "a\nb"}, false},
		{"non-ASCII", Message{Type: MsgError, Reason: "über"}, false},
		{"invalid UTF-8", Message{Type: "\xff"}, false},
	} {
		t.Run("encode/"+tc.class, func(t *testing.T) {
			if got := checkEncodeEquiv(t, tc.msg); got != tc.fast {
				t.Errorf("fast encoder accepted=%v on %+v, want %v", got, tc.msg, tc.fast)
			}
		})
	}
}

// fuzzMessage spreads a handful of fuzzed values over all of Message's
// fields.
func fuzzMessage(typ, job, trace, reason string, round int64, f0, f1, f2, f3 float64) Message {
	return Message{
		Type: MsgType(typ), JobID: job, Cores: f0, WattsPerCore: f1, MaxFrac: f2,
		Round: int(round), Price: f3, TargetW: f0, TraceID: trace, Delta: f1, B: f2,
		ReductionCores: f3, PaymentRate: -f0, Reason: reason,
	}
}

// FuzzJSONCodecEquiv is the proof that the hand-written JSON codec is only
// an accelerator: on raw bytes, decoder accepts ⇒ json.Unmarshal succeeds
// with the identical Message; on fuzzed field values, encoder accepts ⇒
// its bytes are json.Marshal's plus '\n', and it declines whatever
// json.Marshal rejects. Whatever the codec emits it also reads back.
func FuzzJSONCodecEquiv(f *testing.F) {
	for _, tc := range hostileLines {
		f.Add([]byte(tc.line), "bid", "", "m1.r3", "", int64(3), 1.5, 0.25, 0.0, 0.0)
	}
	f.Add([]byte(`{}`), "hello", "job-42", "", "", int64(0), 64.0, 5.5, 0.4, 0.0)
	f.Add([]byte(`{}`), "order", "", "", "", int64(0), 1e-7, -1e-7, 1e21, 5e-324)
	f.Add([]byte(`{}`), "error", "", "", `a<b "q" \ über`, int64(-7), math.Copysign(0, -1), math.NaN(), math.Inf(1), 1.7976931348623157e308)
	f.Add([]byte(`{}`), "Bid", "j\x00", "\xff", "", int64(math.MinInt64), 123456789.0, 1e20, 999999.9999999999, 1e-6)
	f.Fuzz(func(t *testing.T, line []byte, typ, job, trace, reason string, round int64, f0, f1, f2, f3 float64) {
		checkDecodeEquiv(t, line)
		m := fuzzMessage(typ, job, trace, reason, round, f0, f1, f2, f3)
		if !checkEncodeEquiv(t, m) {
			return
		}
		enc, _ := appendJSON(nil, &m)
		checkDecodeEquiv(t, bytes.TrimSuffix(enc, []byte("\n")))
	})
}

// TestJSONCodecRandomRoundTrip drives 200 k seeded random messages
// through the production codec against encoding/json: Send's bytes are
// json.Marshal's whichever path took them, Recv returns what
// json.Unmarshal makes of them, and the fast encoder and decoder take
// exactly the same messages. The values sit on every float-format
// boundary (subnormals, ±1e-7, 1e-6, 1e21, integers, negative zero) and
// the strings include those the fast path must hand over (<, ", \,
// non-ASCII).
func TestJSONCodecRandomRoundTrip(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(19))
	gens := []func() float64{
		func() float64 { return 0 },
		func() float64 { return math.Copysign(0, -1) },
		func() float64 { return float64(rng.Intn(2001) - 1000) },
		func() float64 { return rng.NormFloat64() },
		func() float64 { return math.Copysign(1e-7, rng.Float64()-0.5) * (1 + rng.Float64()) },
		func() float64 { return 1e-6 * (0.999 + 0.002*rng.Float64()) },
		func() float64 { return 1e21 * (0.999 + 0.002*rng.Float64()) },
		func() float64 { return math.Ldexp(rng.Float64(), rng.Intn(2000)-1000) },
		func() float64 { return math.Float64frombits(rng.Uint64() &^ (1 << 62)) }, // any bits below 2
	}
	rf := func() float64 {
		if rng.Intn(256) == 0 {
			// A subnormal: rare, because strconv takes ~20 µs to parse one
			// (inside encoding/json as here).
			return math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		}
		return gens[rng.Intn(len(gens))]()
	}
	clean := []string{"", "", "j-17", "m12.r7", "evicted: write_stall", "a b\x7f"}
	hostile := []string{"a<b", `q"q`, `back\slash`, "über ☃", "x&y", "tab\there", "\xff"}
	rs := func() string {
		if rng.Intn(6) == 0 {
			return hostile[rng.Intn(len(hostile))]
		}
		return clean[rng.Intn(len(clean))]
	}

	var buf bytes.Buffer
	codec := NewCodec(&buf)
	fast := 0
	for i := 0; i < n; i++ {
		m := Message{
			Type: fuzzMsgTypes[rng.Intn(len(fuzzMsgTypes))], JobID: rs(), Cores: rf(), WattsPerCore: rf(), MaxFrac: rf(),
			Round: rng.Intn(5) * (rng.Intn(1<<20) - 1<<19), Price: rf(), TargetW: rf(), TraceID: rs(),
			Delta: rf(), B: rf(), ReductionCores: rf(), PaymentRate: rf(), Reason: rs(),
		}
		if i%3 == 0 { // the hot shape: a bid, little else set
			m = Message{Type: MsgBid, Round: m.Round, TraceID: m.TraceID, Delta: m.Delta, B: m.B}
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var ref Message
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		_, encFast := appendJSON(nil, &m)
		_, decFast := new(Codec).decodeJSON(want)
		if encFast != decFast {
			t.Fatalf("fast encoder accepted=%v, fast decoder accepted=%v on %q", encFast, decFast, want)
		}
		if encFast {
			fast++
		}
		if err := codec.Send(m); err != nil {
			t.Fatalf("Send(%+v): %v", m, err)
		}
		if !bytes.Equal(buf.Bytes(), append(want, '\n')) {
			t.Fatalf("Send(%+v) wrote %q, json.Marshal gives %q", m, buf.Bytes(), want)
		}
		got, err := codec.Recv()
		if err != nil {
			t.Fatalf("Recv of %q: %v", want, err)
		}
		if !sameMessage(got, ref) {
			t.Fatalf("Recv of %q diverges:\n got  %+v\n json %+v", want, got, ref)
		}
	}
	// Guard the test's own reach: the fast path and the declined one must
	// both be well exercised.
	if fast < n/4 || n-fast < n/4 {
		t.Fatalf("fast path took %d of %d messages; the mix no longer exercises both paths", fast, n)
	}
}

// TestJSONCodecZeroAlloc gates the steady state of the default wire: a
// price, bid, order or lift — traced with a repeating ID or not — costs
// no allocation to send and receive. A hello's fresh job_id is the one
// string the decoder has to make.
func TestJSONCodecZeroAlloc(t *testing.T) {
	shapes := map[string]Message{
		"price": {Type: MsgPrice, Round: 7, Price: 0.123456789, TargetW: 4000.5},
		"bid":   {Type: MsgBid, Round: 7, Delta: 12.75, B: 3.0625e-7},
		"order": {Type: MsgOrder, Price: 0.3, ReductionCores: 12.5, PaymentRate: 3.75},
		"lift":  {Type: MsgLift},
	}
	for name, m := range shapes {
		for _, trace := range []string{"", "m12.r7"} {
			m.TraceID = trace
			var buf bytes.Buffer
			c := NewCodec(&buf)
			roundTrip := func() {
				if err := c.Send(m); err != nil {
					t.Fatal(err)
				}
				got, err := c.Recv()
				if err != nil || got != m {
					t.Fatalf("round trip of %+v: %+v, %v", m, got, err)
				}
			}
			roundTrip() // warm-up: grows the send buffer, interns the trace
			if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
				t.Errorf("%s (trace %q): %.1f allocs/op, want 0", name, trace, allocs)
			}
		}
	}

	var buf bytes.Buffer
	c := NewCodec(&buf)
	hello := Message{Type: MsgHello, JobID: "job-00042", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(hello); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Recv(); err != nil || got != hello {
			t.Fatalf("round trip of %+v: %+v, %v", hello, got, err)
		}
	})
	if allocs > 1 {
		t.Errorf("hello: %.1f allocs/op, want at most the job_id string", allocs)
	}
}
