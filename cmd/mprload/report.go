package main

import (
	"encoding/json"
	"os"

	"mpr/internal/telemetry"
	"mpr/internal/telemetry/alerts"
)

// loadSchema versions the report artifact. Bump it on any field change —
// TestLoadReportSchema decodes strictly, so drift without a bump fails CI.
// v2: config gains wire (json|binary agent transport) and shards (selfhost
// manager connection shards).
// v3: flight_bundle names the mprflight black-box bundle parked next
// to a failing report, so the exit-3 CI path is self-diagnosing.
// v4: config drops transport, target_frac, stream and sample_seconds —
// the selfhost harness always attaches over net.Pipe to a batch-clearing
// manager at a 0.25 target fraction, sampling every 250 ms.
const loadSchema = "mprload/report/v4"

// loadReport is the versioned JSON artifact one mprload run emits
// (-report). It is self-describing: the binary that produced it, the
// configuration that drove it, what the fleet and the markets did, the
// latency digests, and the SLO verdicts.
type loadReport struct {
	Schema string              `json:"schema"`
	Build  telemetry.BuildInfo `json:"build"`
	Config configSection       `json:"config"`

	Agents  agentsSection  `json:"agents"`
	Markets marketsSection `json:"markets"`

	// RoundTripSeconds digests the agent-observed round turnaround: the
	// time from answering one price broadcast to receiving the next
	// (reset across markets), recorded by every agent into one shared
	// HDR histogram.
	RoundTripSeconds telemetry.HDRSummary `json:"round_trip_seconds"`
	// BidRTTSeconds digests the manager-side price→bid round trip.
	// Selfhost mode only (a connected external manager keeps its own);
	// zero-valued in connect mode.
	BidRTTSeconds telemetry.HDRSummary `json:"bid_rtt_seconds"`

	ClearPrice     clearPriceSection `json:"clear_price"`
	SLO            sloSection        `json:"slo"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`

	// FlightBundle is the path of the mprflight/v3 bundle written next
	// to a -report file when the SLO scorecard failed (empty otherwise):
	// the incident evidence that travels with the verdict.
	FlightBundle string `json:"flight_bundle,omitempty"`
}

// configSection echoes the resolved run configuration.
type configSection struct {
	Agents          int     `json:"agents"`
	Connect         string  `json:"connect,omitempty"`
	Mode            string  `json:"mode"`
	DurationSeconds float64 `json:"duration_seconds"`
	IntervalSeconds float64 `json:"interval_seconds"`
	Dist            string  `json:"dist"`
	Seed            int64   `json:"seed"`
	Workers         int     `json:"workers"`
	TargetW         float64 `json:"target_w"`
	Jitter          float64 `json:"jitter"`
	Wire            string  `json:"wire"`
	Shards          int     `json:"shards"`
}

type agentsSection struct {
	Requested  int `json:"requested"`
	Connected  int `json:"connected"`
	DialErrors int `json:"dial_errors"`
	// Remaining is the fleet still attached at run end.
	Remaining int `json:"remaining"`
}

// marketsSection describes the markets the run drove (selfhost) or
// observed through order broadcasts (connect mode, where Runs counts the
// orders the sentinel agent received and the solver-side fields stay 0).
type marketsSection struct {
	Runs        int `json:"runs"`
	Converged   int `json:"converged"`
	Errors      int `json:"errors"`
	RoundsTotal int `json:"rounds_total"`
	// LateStarts counts open-loop ticks that found the previous market
	// still running — the closed-loop fallback the harness took instead
	// of queueing.
	LateStarts int `json:"late_starts"`
}

// clearPriceSection digests one price per market: each market the run
// drove (selfhost) or each order the sentinel agent received (connect).
type clearPriceSection struct {
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// sloSection is the live scorecard: every rule evaluated, how many
// evaluation passes ran, and the deduplicated firings.
type sloSection struct {
	Rules       []alerts.Rule   `json:"rules"`
	Evaluations int             `json:"evaluations"`
	Firings     []alerts.Firing `json:"firings"`
	// Passed is false iff any rule fired during the run.
	Passed bool `json:"passed"`
}

// writeReport marshals the report to path ("-" or "" meaning stdout).
func writeReport(r *loadReport, path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
