package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestLoadReportSchema validates an mprload report against the
// mprload/report/v4 schema: strict decoding (field drift fails the test,
// forcing a schema bump), plus semantic floor checks on the sections CI
// relies on. By default it generates a fresh report from a tiny
// in-process run; point MPR_LOAD_JSON at a report file to validate that
// instead — the CI load smoke does exactly that after a short run
// against a booted mprd.
func TestLoadReportSchema(t *testing.T) {
	var data []byte
	external := os.Getenv("MPR_LOAD_JSON")
	if external != "" {
		var err error
		data, err = os.ReadFile(external)
		if err != nil {
			t.Fatalf("reading load report: %v", err)
		}
	} else {
		h, err := newHarness(loadConfig{
			Agents:   16,
			Mode:     "closed",
			Duration: 300 * time.Millisecond,
			Dist:     "lognormal",
			Seed:     1,
			Jitter:   0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.connect(); err != nil {
			t.Fatal(err)
		}
		defer h.close()
		rep, err := h.run()
		if err != nil {
			t.Fatal(err)
		}
		data, err = json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
	}

	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r loadReport
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	if r.Schema != loadSchema {
		t.Fatalf("schema = %q, want %q", r.Schema, loadSchema)
	}
	if r.Build.GoVersion == "" {
		t.Error("build.go_version is empty")
	}
	if r.Config.Agents < 1 {
		t.Errorf("config.agents = %d, want ≥ 1", r.Config.Agents)
	}
	if r.Agents.Connected < 1 || r.Agents.Connected > r.Agents.Requested {
		t.Errorf("agents connected %d / requested %d out of range",
			r.Agents.Connected, r.Agents.Requested)
	}
	if r.Markets.Runs < 1 {
		t.Errorf("markets.runs = %d, want ≥ 1", r.Markets.Runs)
	}
	if r.Markets.Errors > r.Markets.Runs || r.Markets.Converged > r.Markets.Runs {
		t.Errorf("markets section inconsistent: %+v", r.Markets)
	}
	// The whole point of the harness: a tail exists and was measured.
	if r.RoundTripSeconds.Count < 1 {
		t.Error("round_trip_seconds has no observations")
	}
	if r.RoundTripSeconds.P99 <= 0 {
		t.Errorf("round_trip_seconds.p99 = %g, want > 0", r.RoundTripSeconds.P99)
	}
	if r.RoundTripSeconds.P50 > r.RoundTripSeconds.P99 ||
		r.RoundTripSeconds.P99 > r.RoundTripSeconds.P999 {
		t.Errorf("round-trip quantiles not monotone: p50 %g p99 %g p999 %g",
			r.RoundTripSeconds.P50, r.RoundTripSeconds.P99, r.RoundTripSeconds.P999)
	}
	if r.ClearPrice.Samples > 0 && (r.ClearPrice.Last <= 0 || r.ClearPrice.Min > r.ClearPrice.Max) {
		t.Errorf("clear_price section inconsistent: %+v", r.ClearPrice)
	}
	// The SLO scorecard must actually have run.
	if len(r.SLO.Rules) == 0 {
		t.Error("slo.rules is empty")
	}
	if r.SLO.Evaluations < 1 {
		t.Errorf("slo.evaluations = %d, want ≥ 1", r.SLO.Evaluations)
	}
	if r.SLO.Passed != (len(r.SLO.Firings) == 0) {
		t.Errorf("slo.passed = %v inconsistent with %d firings",
			r.SLO.Passed, len(r.SLO.Firings))
	}
	if r.ElapsedSeconds <= 0 {
		t.Errorf("elapsed_seconds = %g, want > 0", r.ElapsedSeconds)
	}
}
