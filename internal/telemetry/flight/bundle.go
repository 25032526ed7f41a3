package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mpr/internal/telemetry"
	"mpr/internal/telemetry/alerts"
	"mpr/internal/telemetry/tsdb"
)

// BundleSchema versions the flight-bundle artifact. Strict-decoded on
// read: adding a field without bumping the version fails ReadBundleFile
// (and the schema test in CI). v2: the series window carries raw
// {t, v} samples instead of v1's resolution-tagged buckets.
const BundleSchema = "mprflight/v2"

// Trigger reasons a bundle records. Kept as plain strings on the wire;
// Validate accepts exactly this set so tooling can switch on them.
const (
	ReasonAlert  = "alert"  // a fresh (cooldown-passing) alerts.Firing
	ReasonManual = "manual" // POST /debug/flight/dump
	ReasonSignal = "signal" // SIGQUIT
	ReasonExit   = "exit"   // process shutdown
	ReasonSLO    = "slo"    // mprload attaching evidence to a failed run
)

// Bundle is the versioned mprflight/v2 black-box artifact: everything an
// operator needs from the seconds before a trigger, in one self-
// describing JSON document. The schema deliberately reuses the repo's
// existing serialized forms — telemetry.Event, telemetry.Span,
// alerts.Firing, tsdb.SeriesData — so every offline tool that already
// reads trace logs or series exports reads bundles too.
type Bundle struct {
	Schema      string `json:"schema"`
	SavedUnixNS int64  `json:"saved_unix_ns"`
	// DumpSeq numbers the bundles one recorder wrote (1-based), so a dump
	// burst on disk sorts in trigger order whatever the filesystem says.
	DumpSeq int `json:"dump_seq"`
	// Reason is the trigger taxonomy entry; Trigger the firing that
	// tripped an "alert" or "slo" dump (absent for manual/signal/exit).
	Reason  string         `json:"reason"`
	Trigger *alerts.Firing `json:"trigger,omitempty"`

	// Build and Config pin provenance: the binary and the flag
	// configuration the incident happened under.
	Build  telemetry.BuildInfo `json:"build"`
	Config map[string]string   `json:"config,omitempty"`

	// Runtime is the process-health snapshot at dump time.
	Runtime RuntimeSnapshot `json:"runtime"`

	// Counters/Gauges/HDRs are the registry snapshot; HDRs carry the
	// latency digests (bid RTT, round turnaround) as quantile summaries.
	Counters map[string]int64                `json:"counters,omitempty"`
	Gauges   map[string]float64              `json:"gauges,omitempty"`
	HDRs     map[string]telemetry.HDRSummary `json:"hdr_histograms,omitempty"`

	// Events and Spans are the tracer rings' retained windows — the
	// last-N clearing rounds, stream updates, evictions, coalesced bids.
	Events []telemetry.Event `json:"events"`
	Spans  []telemetry.Span  `json:"spans"`

	// Firings is the recorder's retained alert history (every firing it
	// saw, fresh or cooldown-suppressed), newest last.
	Firings []alerts.Firing `json:"firings"`

	// Series is the tsdb window around the trigger, every series' raw
	// samples — including the mpr_rt_* runtime-health series.
	Series []tsdb.SeriesData `json:"series"`

	// GoroutineProfile is the pprof "goroutine" profile at debug=1 —
	// where every goroutine was when the box was opened.
	GoroutineProfile string `json:"goroutine_profile"`
}

// Validate checks the schema tag and the invariants the readers rely on.
func (b *Bundle) Validate() error {
	if b.Schema != BundleSchema {
		return fmt.Errorf("flight: bundle schema %q, want %q", b.Schema, BundleSchema)
	}
	switch b.Reason {
	case ReasonAlert, ReasonManual, ReasonSignal, ReasonExit, ReasonSLO:
	default:
		return fmt.Errorf("flight: unknown trigger reason %q", b.Reason)
	}
	if b.SavedUnixNS <= 0 {
		return fmt.Errorf("flight: bundle has no save timestamp")
	}
	if b.DumpSeq < 1 {
		return fmt.Errorf("flight: dump_seq %d, want ≥ 1", b.DumpSeq)
	}
	if (b.Reason == ReasonAlert || b.Reason == ReasonSLO) && b.Trigger == nil {
		return fmt.Errorf("flight: %s bundle without its triggering firing", b.Reason)
	}
	if b.GoroutineProfile == "" {
		return fmt.Errorf("flight: bundle has no goroutine profile")
	}
	if b.Runtime.Goroutines < 1 {
		return fmt.Errorf("flight: runtime snapshot reports %d goroutines", b.Runtime.Goroutines)
	}
	return nil
}

// WriteBundleFile atomically writes the bundle (temp file + rename, the
// mprstate/v1 discipline: a crash mid-dump leaves the previous bundle
// intact, never a torn one).
func WriteBundleFile(path string, b *Bundle) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("flight: encode bundle: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("flight: write bundle: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("flight: write bundle: %w", err)
	}
	return nil
}

// ReadBundleFile strictly decodes and validates an mprflight/v2 bundle:
// unknown fields and bytes after the JSON value are errors, so schema
// drift and a damaged file are caught at the reader.
func ReadBundleFile(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flight: read bundle: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	b := &Bundle{}
	if err := dec.Decode(b); err != nil {
		return nil, fmt.Errorf("flight: decode bundle %s: %w", path, err)
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return nil, fmt.Errorf("flight: bundle %s: trailing data after the JSON value", path)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("flight: bundle %s: %w", path, err)
	}
	return b, nil
}
