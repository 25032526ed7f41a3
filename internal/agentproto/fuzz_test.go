package agentproto

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// oldMessage is the pre-trace wire envelope, field for field — the shape
// every agent binary built before the trace field understood. The fuzz
// target below holds the two decoders against each other to prove the
// trace field is invisible to old-format traffic.
type oldMessage struct {
	Type MsgType `json:"type"`

	JobID        string  `json:"job_id,omitempty"`
	Cores        float64 `json:"cores,omitempty"`
	WattsPerCore float64 `json:"watts_per_core,omitempty"`
	MaxFrac      float64 `json:"max_frac,omitempty"`

	Round   int     `json:"round,omitempty"`
	Price   float64 `json:"price,omitempty"`
	TargetW float64 `json:"target_w,omitempty"`

	Delta float64 `json:"delta,omitempty"`
	B     float64 `json:"b,omitempty"`

	ReductionCores float64 `json:"reduction_cores,omitempty"`
	PaymentRate    float64 `json:"payment_rate,omitempty"`

	Reason string `json:"reason,omitempty"`
}

// fieldsEqual compares the fields the two envelope generations share.
func fieldsEqual(m Message, o oldMessage) bool {
	return m.Type == o.Type &&
		m.JobID == o.JobID && m.Cores == o.Cores &&
		m.WattsPerCore == o.WattsPerCore && m.MaxFrac == o.MaxFrac &&
		m.Round == o.Round && m.Price == o.Price && m.TargetW == o.TargetW &&
		m.Delta == o.Delta && m.B == o.B &&
		m.ReductionCores == o.ReductionCores && m.PaymentRate == o.PaymentRate &&
		m.Reason == o.Reason
}

// FuzzCodecTraceCompat feeds arbitrary wire lines (old format, traced,
// and garbage) through both envelope generations and asserts the
// compatibility contract:
//
//   - any line WITHOUT a "trace" key decodes identically under the old
//     and new envelopes (same accept/reject verdict, same field values,
//     TraceID empty), and the new envelope re-encodes it byte-identically
//     to the old one — old agents and managers cannot tell the
//     difference;
//   - any line WITH a string "trace" key decodes with TraceID set, and
//     stripping the trace recovers the old encoding;
//   - nothing panics, whatever the bytes.
func FuzzCodecTraceCompat(f *testing.F) {
	seeds := []string{
		`{"type":"bid","round":3,"delta":1.5,"b":0.25}`,
		`{"type":"price","round":1,"price":0.1,"target_w":400}`,
		`{"type":"bid","round":3,"trace":"m1.r3","delta":1.5,"b":0.25}`,
		`{"type":"price","round":2,"price":0.5,"target_w":400,"trace":"m7.r2"}`,
		`{"type":"hello","job_id":"j1","cores":64,"watts_per_core":125,"max_frac":0.4}`,
		`{"type":"order","price":0.3,"reduction_cores":12,"payment_rate":3.6}`,
		"{\"type\":\"bid\",\"round\":1,\"trace\":\"\\u0000garbage\",\"delta\":-1}",
		`{"type":"bid","trace":12345}`,
		`{"trace":"orphan"}`,
		`not-json at all`,
		`{}`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var m Message
		errNew := json.Unmarshal(line, &m)

		// Classify the input: valid JSON object, and does it carry a
		// "trace" key (of any type)?
		var raw map[string]json.RawMessage
		if json.Unmarshal(line, &raw) != nil {
			// Not a JSON object: both decoders must agree it is garbage.
			var o oldMessage
			if errOld := json.Unmarshal(line, &o); (errNew == nil) != (errOld == nil) {
				t.Fatalf("decoder verdicts diverge on non-object %q: new=%v old=%v", line, errNew, errOld)
			}
			return
		}
		// encoding/json matches keys case-insensitively (exact match wins),
		// so any case variant of "trace" feeds TraceID and disqualifies the
		// line as old-format traffic. Prefer the exact key when both exist.
		var traceRaw json.RawMessage
		hasTrace := false
		traceKeys := 0
		for k, v := range raw {
			if strings.EqualFold(k, "trace") {
				traceKeys++
				if !hasTrace || k == "trace" {
					traceRaw, hasTrace = v, true
				}
			}
		}

		var o oldMessage
		errOld := json.Unmarshal(line, &o)

		if !hasTrace {
			// Old-format input. The contract: bit-identical behavior.
			if (errNew == nil) != (errOld == nil) {
				t.Fatalf("decoder verdicts diverge on old-format %q: new=%v old=%v", line, errNew, errOld)
			}
			if errNew != nil {
				return
			}
			if m.TraceID != "" {
				t.Fatalf("old-format %q decoded with TraceID %q", line, m.TraceID)
			}
			if !fieldsEqual(m, o) {
				t.Fatalf("old-format %q: field mismatch\n new %+v\n old %+v", line, m, o)
			}
			newBytes, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			oldBytes, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(newBytes, oldBytes) {
				t.Fatalf("re-encode diverges on old-format input:\n new %s\n old %s", newBytes, oldBytes)
			}
			return
		}

		// Traced input. A non-string trace must be rejected by the new
		// decoder (and is not old-format traffic, so no equivalence is
		// owed); a string trace must land in TraceID verbatim.
		var traceStr string
		if json.Unmarshal(traceRaw, &traceStr) != nil {
			if errNew == nil {
				t.Fatalf("non-string trace %s accepted in %q", traceRaw, line)
			}
			return
		}
		if errNew != nil {
			// Some other field is malformed; nothing more to check.
			return
		}
		// With several case variants of the key, which occurrence wins
		// depends on input order the map cannot recover — only assert
		// verbatim capture for the unambiguous single-key case.
		if traceKeys == 1 && m.TraceID != traceStr {
			t.Fatalf("trace %q decoded as %q", traceStr, m.TraceID)
		}
		if errOld == nil && !fieldsEqual(m, o) {
			t.Fatalf("traced %q: shared fields diverge\n new %+v\n old %+v", line, m, o)
		}
		// Stripping the trace recovers the old-format encoding exactly.
		stripped := m
		stripped.TraceID = ""
		newBytes, err := json.Marshal(stripped)
		if err != nil {
			t.Fatal(err)
		}
		oldBytes, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if errOld == nil && !bytes.Equal(newBytes, oldBytes) {
			t.Fatalf("trace-stripped re-encode diverges:\n new %s\n old %s", newBytes, oldBytes)
		}
	})
}

// FuzzStateDecode feeds arbitrary bytes to ReadStateFile (strict decode,
// end of input, Validate). It never panics, and a state it accepts
// writes back through WriteStateFile and reads back equal. Each fuzz
// worker runs one input at a time, so one file path serves them all.
func FuzzStateDecode(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.state")
	seed := &State{Schema: StateSchema, SavedUnixNS: 1, MarketSeq: 3, LastPrice: 0.125, Agents: []AgentState{
		{JobID: "a", Cores: 4, WattsPerCore: 100, MaxFrac: 0.4, HasBid: true, Delta: 1, B: 0.2},
		{JobID: "b", Cores: 64, WattsPerCore: 5.5, MaxFrac: 0.9},
	}}
	if err := WriteStateFile(path, seed); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(append(raw, "garbage{"...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadStateFile(path)
		if err != nil {
			return
		}
		if err := WriteStateFile(path, st); err != nil {
			t.Fatalf("write accepted state: %v", err)
		}
		back, err := ReadStateFile(path)
		if err != nil {
			t.Fatalf("read back accepted state: %v", err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("state round trip diverged:\n got  %+v\n want %+v", back, st)
		}
	})
}
