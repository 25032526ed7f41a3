package agentproto

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

// fuzzMsgTypes maps the fuzzer's type selector to the six real message
// types.
var fuzzMsgTypes = [6]MsgType{MsgHello, MsgPrice, MsgBid, MsgOrder, MsgLift, MsgError}

// sanitizeF drops values JSON cannot carry (NaN, ±Inf) — the equivalence
// contract is over the protocol's value domain, and json.Marshal rejects
// non-finite floats outright.
func sanitizeF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// sanitizeStr clamps to the protocol's value domain: valid UTF-8 (JSON
// replaces invalid sequences with U+FFFD at encode, which would diverge
// from the binary codec's byte-transparent strings) and bounded length.
func sanitizeStr(s string) string {
	if len(s) > 512 {
		s = s[:512]
	}
	return strings.ToValidUTF8(s, "�")
}

// normalizeZeros returns the struct both codecs are obliged to produce:
// a field whose value is zero — including -0.0 — is "absent" under both
// JSON omitempty and the binary field bitmap, so it decodes as +0.
func normalizeZeros(m Message) Message {
	if m.Cores == 0 {
		m.Cores = 0
	}
	if m.WattsPerCore == 0 {
		m.WattsPerCore = 0
	}
	if m.MaxFrac == 0 {
		m.MaxFrac = 0
	}
	if m.Price == 0 {
		m.Price = 0
	}
	if m.TargetW == 0 {
		m.TargetW = 0
	}
	if m.Delta == 0 {
		m.Delta = 0
	}
	if m.B == 0 {
		m.B = 0
	}
	if m.ReductionCores == 0 {
		m.ReductionCores = 0
	}
	if m.PaymentRate == 0 {
		m.PaymentRate = 0
	}
	return m
}

// FuzzFrameCodecJSONEquiv is the binary↔JSON differential: any message
// in the protocol's value domain must round-trip through the binary
// frame codec and through the JSON-lines codec to the IDENTICAL struct
// (float bits included — JSON's shortest-round-trip decimals and the
// frame's raw IEEE-754 bits both preserve float64 exactly). Untraced
// messages must additionally keep the JSON path byte-identical to the
// frozen pre-trace envelope, chaining this fuzzer to the PR 7 golden
// pin: JSON stays the backward-compatible wire, binary is provably just
// an encoding of it.
func FuzzFrameCodecJSONEquiv(f *testing.F) {
	f.Add(byte(0), "job-42", 64.0, 5.5, 0.4, int32(0), 0.0, 0.0, "", 0.0, 0.0, 0.0, 0.0, "")
	f.Add(byte(1), "", 0.0, 0.0, 0.0, int32(3), 0.125, 4000.0, "m7.r3", 0.0, 0.0, 0.0, 0.0, "")
	f.Add(byte(2), "", 0.0, 0.0, 0.0, int32(3), 0.0, 0.0, "m7.r3", 1.5, 0.25, 0.0, 0.0, "")
	f.Add(byte(3), "", 0.0, 0.0, 0.0, int32(0), 0.125, 0.0, "", 0.0, 0.0, 12.5, 1.5625, "")
	f.Add(byte(5), "", 0.0, 0.0, 0.0, int32(0), 0.0, 0.0, "", 0.0, 0.0, 0.0, 0.0, "duplicate job_id")
	// Adversarial values: negative zero, subnormals, huge magnitudes,
	// negative rounds, non-ASCII strings.
	f.Add(byte(2), "", math.Copysign(0, -1), 5e-324, 1.7976931348623157e308, int32(-7), 0.1, 0.0, "über-trace ☃", -1.5, 0.0, 0.0, 0.0, "евикт")
	f.Fuzz(func(t *testing.T, typ byte, jobID string, cores, wpc, maxFrac float64, round int32,
		price, targetW float64, trace string, delta, b, red, pay float64, reason string) {
		m := Message{
			Type:           fuzzMsgTypes[int(typ)%len(fuzzMsgTypes)],
			JobID:          sanitizeStr(jobID),
			Cores:          sanitizeF(cores),
			WattsPerCore:   sanitizeF(wpc),
			MaxFrac:        sanitizeF(maxFrac),
			Round:          int(round),
			Price:          sanitizeF(price),
			TargetW:        sanitizeF(targetW),
			TraceID:        sanitizeStr(trace),
			Delta:          sanitizeF(delta),
			B:              sanitizeF(b),
			ReductionCores: sanitizeF(red),
			PaymentRate:    sanitizeF(pay),
			Reason:         sanitizeStr(reason),
		}
		want := normalizeZeros(m)

		// Binary leg: Send → Recv must reproduce the struct exactly.
		var fbuf bytes.Buffer
		fc := NewFrameCodec(&fbuf, &fbuf)
		if err := fc.Send(m); err != nil {
			t.Fatalf("frame Send(%+v): %v", m, err)
		}
		gotBin, err := fc.Recv()
		if err != nil {
			t.Fatalf("frame Recv(%+v): %v", m, err)
		}
		if gotBin != want {
			t.Fatalf("binary round trip diverged:\n got  %+v\n want %+v", gotBin, want)
		}

		// JSON leg through the production codec.
		var jbuf bytes.Buffer
		jc := NewCodec(&jbuf)
		if err := jc.Send(m); err != nil {
			t.Fatalf("json Send(%+v): %v", m, err)
		}
		jsonLine := append([]byte(nil), jbuf.Bytes()...)
		gotJSON, err := jc.Recv()
		if err != nil {
			t.Fatalf("json Recv(%+v) [line %q]: %v", m, jsonLine, err)
		}
		if gotJSON != want {
			t.Fatalf("json round trip diverged [line %q]:\n got  %+v\n want %+v", jsonLine, gotJSON, want)
		}

		// The two transports agree struct-for-struct (implied by the two
		// checks above; stated for the differential contract).
		if gotBin != gotJSON {
			t.Fatalf("binary and json decode diverge:\n bin  %+v\n json %+v", gotBin, gotJSON)
		}

		// Untraced messages: the JSON path stays byte-identical to the
		// frozen pre-trace envelope (the PR 7 compatibility pin).
		if want.TraceID == "" {
			o := oldMessage{Type: m.Type, JobID: m.JobID, Cores: m.Cores,
				WattsPerCore: m.WattsPerCore, MaxFrac: m.MaxFrac,
				Round: m.Round, Price: m.Price, TargetW: m.TargetW,
				Delta: m.Delta, B: m.B,
				ReductionCores: m.ReductionCores, PaymentRate: m.PaymentRate,
				Reason: m.Reason}
			newBytes, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			oldBytes, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(newBytes, oldBytes) {
				t.Fatalf("untraced JSON encoding drifted from frozen envelope:\n new %s\n old %s", newBytes, oldBytes)
			}
		}
	})
}

// FuzzFrameRecv feeds arbitrary bytes to FrameCodec.Recv until it errors.
// Recv never panics, never holds a payload buffer past maxFramePayload,
// and every message it decodes re-encodes to a frame that decodes to the
// same message. "The same" is compared through the encoding: a frame
// carries raw float bits, so a decoded NaN must survive (where == fails),
// and a decoded −0 travels as an absent field, as Send always sends it.
func FuzzFrameRecv(f *testing.F) {
	var stream bytes.Buffer
	all := NewFrameCodec(&stream, &stream)
	for _, m := range frameMessages() {
		frame, err := appendFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if err := all.Send(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := NewFrameCodec(bytes.NewReader(raw), io.Discard)
		for {
			m, err := c.Recv()
			if cap(c.pay) > maxFramePayload {
				t.Fatalf("payload buffer grew to %d bytes, cap %d", cap(c.pay), maxFramePayload)
			}
			if err != nil {
				return
			}
			frame, err := appendFrame(nil, &m)
			if err != nil {
				t.Fatalf("re-encode %+v: %v", m, err)
			}
			got, err := NewFrameCodec(bytes.NewReader(frame), io.Discard).Recv()
			if err != nil {
				t.Fatalf("decode re-encoded %+v: %v", m, err)
			}
			again, err := appendFrame(nil, &got)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("round trip diverged: %+v re-decoded as %+v (%v)", m, got, err)
			}
		}
	})
}
