package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/flight"
)

// TestResultTelemetryConsistency cross-checks the snapshot of the
// registry a run was handed against the engine's own aggregate counters
// on a run with real emergencies.
func TestResultTelemetryConsistency(t *testing.T) {
	tr := testTrace(t, 3)
	reg := telemetry.NewRegistry()
	res, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmergencyCount == 0 {
		t.Fatal("test trace produced no emergencies — nothing to check")
	}
	s := reg.Snapshot()
	if s == nil {
		t.Fatal("registry snapshot missing")
	}
	if got := s.Counter(MetricMarketInvocations); got != int64(res.MarketInvocations) {
		t.Fatalf("market invocations: snapshot %d, result %d", got, res.MarketInvocations)
	}
	if got := s.Counter(MetricInfeasibleClears); got != int64(res.InfeasibleEvents) {
		t.Fatalf("infeasible clears: snapshot %d, result %d", got, res.InfeasibleEvents)
	}
	rounds := s.HDR(MetricInteractiveRounds)
	if rounds.Count != int64(res.MarketInvocations) {
		t.Fatalf("rounds histogram count %d, invocations %d", rounds.Count, res.MarketInvocations)
	}
	if res.MarketInvocations > 0 {
		wantMean := res.MeanRounds
		if got := rounds.Mean; got < wantMean-1e-9 || got > wantMean+1e-9 {
			t.Fatalf("rounds mean %g, result MeanRounds %g", got, wantMean)
		}
	}
	lat := s.HDR(MetricReductionLatency)
	if lat.Count != int64(res.MarketInvocations) {
		t.Fatalf("latency observations %d, invocations %d", lat.Count, res.MarketInvocations)
	}
	if lat.Sum != 0 {
		t.Fatalf("reduction latency %g slots without market delay, want 0", lat.Sum)
	}
	// The power controller reports into the same registry.
	declares := s.Counter(power.MetricEmergencyEvents + `{event="declare"}`)
	if declares != int64(res.EmergencyCount) {
		t.Fatalf("declares %d, emergency count %d", declares, res.EmergencyCount)
	}
}

// TestResultTraceEvents checks the event window: emergencies bracketed by
// declare/lift, one market_clear per invocation, and MPR-INT per-round
// price trajectories tagged with the run's trace ID.
func TestResultTraceEvents(t *testing.T) {
	tr := testTrace(t, 3)
	res, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceEvents) == 0 {
		t.Fatal("no trace events recorded")
	}
	counts := map[string]int{}
	lastSeq := uint64(0)
	for _, e := range res.TraceEvents {
		counts[e.Name]++
		if e.Seq <= lastSeq {
			t.Fatalf("events out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
	}
	// The window may have evicted early events; a 64-event tail must
	// still hold market clears and interactive rounds.
	if counts["market_clear"] == 0 {
		t.Fatalf("no market_clear events: %v", counts)
	}
	if counts["market_round"] == 0 {
		t.Fatalf("no market_round events for MPR-INT: %v", counts)
	}
	for _, e := range res.TraceEvents {
		if e.Name == "market_round" && e.Trace != string(AlgMPRInt) {
			t.Fatalf("market_round missing run trace ID: %+v", e)
		}
		if e.Name == "market_clear" && e.Label == "" {
			t.Fatalf("market_clear without feasibility label: %+v", e)
		}
	}
}

// TestTraceSinkJSONL streams a run's events to a sink and re-parses them.
func TestTraceSinkJSONL(t *testing.T) {
	tr := testTrace(t, 3)
	var sink strings.Builder
	res, err := Run(Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7,
		TraceEvents: 64, TraceSink: &sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MarketInvocations == 0 {
		t.Fatal("no market invocations")
	}
	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	clears := 0
	for sc.Scan() {
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if e.Name == "market_clear" {
			clears++
		}
	}
	// The sink sees every event, unconstrained by the ring cap.
	if clears != res.MarketInvocations {
		t.Fatalf("sink saw %d market_clear events, result has %d invocations",
			clears, res.MarketInvocations)
	}
}

// TestDefaultRunKeepsNoTrace pins tracing as opt-in: a Result keeps no
// span or event window unless Config.TraceEvents asks for one, a
// TraceSink alone still streams every event the run emits, and a default
// Result of the sparse shape stays small enough that callers can keep
// thousands of them.
func TestDefaultRunKeepsNoTrace(t *testing.T) {
	tr := testTrace(t, 3)
	cfg := Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7}
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(cfg)
	if plain.EmergencyCount == 0 {
		t.Fatal("no emergencies — nothing would be traced")
	}
	if plain.Spans != nil || plain.TraceEvents != nil {
		t.Fatalf("default run retained %d spans and %d events, want none", len(plain.Spans), len(plain.TraceEvents))
	}

	// The whole run, retained: the window is larger than the run's events.
	full := cfg
	full.TraceEvents = 1 << 16
	all := run(full).TraceEvents
	if len(all) == 0 || len(all) == full.TraceEvents {
		t.Fatalf("a %d-event window kept %d events, want the whole run", full.TraceEvents, len(all))
	}
	var sink strings.Builder
	streamed := cfg
	streamed.TraceSink = &sink
	res := run(streamed)
	if res.Spans != nil || res.TraceEvents != nil {
		t.Fatalf("sink-only run retained %d spans and %d events, want none", len(res.Spans), len(res.TraceEvents))
	}
	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	n := 0
	for ; sc.Scan(); n++ {
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if n >= len(all) {
			continue
		}
		want := all[n]
		e.TimeNS, want.TimeNS = 0, 0 // wall clock, stamped by Emit
		if e != want {
			t.Fatalf("streamed event %d = %+v, retained run has %+v", n, e, want)
		}
	}
	if n != len(all) {
		t.Fatalf("sink saw %d events, the retained run %d", n, len(all))
	}

	// Retained bytes per default Result of the sparse shape, averaged over
	// a few kept Results so the runtime's own allocations round away.
	sparse := sparseConfig()
	sparse.RecordJobs = false
	run(sparse)
	const kept = 8
	results := make([]*Result, kept)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range results {
		results[i] = run(sparse)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perResult := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / kept
	runtime.KeepAlive(results)
	t.Logf("a default sparse Result retains %d bytes", perResult)
	if perResult > 4096 {
		t.Errorf("a default sparse Result retains %d bytes, want ≤ 4096", perResult)
	}
}

// TestCountInstrumentsOnEverySurface registers the three count-valued
// instruments the way production does (the engine's newSimMetrics, the
// emergency controller) in one registry and checks
// each renders as a summary on /metrics, with no _bucket series left, and
// lands in a flight bundle's hdr_histograms with its exact count and sum.
func TestCountInstrumentsOnEverySurface(t *testing.T) {
	reg := telemetry.NewRegistry()

	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	ps := []*core.Participant{{JobID: "a", Cores: 16, WattsPerCore: 125, MaxFrac: prof.MaxReduction()}}
	bidders := []core.Bidder{&core.RationalBidder{Cores: 16, Model: perf.NewCostModel(prof, 1, perf.CostLinear)}}
	res, err := core.ClearInteractive(ps, bidders, 300, core.InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}

	sm := newSimMetrics(reg)
	sm.rounds.Record(float64(res.Rounds))
	sm.rounds.Record(1)
	sm.latency.Record(0) // applied in the slot it was ordered
	sm.latency.Record(2)

	ec, err := power.NewEmergencyController(power.EmergencyConfig{
		CapacityW: 1000, MinOverloadSlots: 1, CooldownSlots: 1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := ec.Step(1200, 1200); !d.Declare {
		t.Fatalf("expected declare, got %+v", d)
	}
	slots := 0
	for lifted := false; !lifted; slots++ {
		if slots > 200 {
			t.Fatal("emergency never lifted")
		}
		// The reduced system leaves too little headroom to lift for 150
		// slots, so the emergency outlasts the 128-slot trackable range
		// and its length lands in overflow.
		delivered := 900.0
		if slots >= 150 {
			delivered = 400
		}
		lifted = ec.Step(1200, delivered).Lift
	}

	want := map[string][2]float64{ // name → {count, sum}
		MetricInteractiveRounds:       {2, float64(res.Rounds) + 1},
		MetricReductionLatency:        {2, 2},
		power.MetricEmergencyDuration: {1, float64(slots)},
	}

	rec := httptest.NewRecorder()
	telemetry.NewHandler(telemetry.HandlerConfig{Registry: reg}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	text := string(body)
	if strings.Contains(text, "_bucket") || strings.Contains(text, " histogram\n") {
		t.Fatalf("/metrics carries a fixed-bucket series:\n%s", text)
	}

	dir := t.TempDir()
	fr, err := flight.New(flight.Config{Registry: reg, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path, err := fr.Dump(time.Unix(5000, 0), flight.ReasonManual, nil)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := flight.ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, w := range want {
		for _, line := range []string{
			"# TYPE " + name + " summary\n",
			name + `{quantile="0.5"} `,
			name + "_count " + fmt.Sprint(w[0]) + "\n",
			name + "_sum " + fmt.Sprint(w[1]) + "\n",
		} {
			if !strings.Contains(text, line) {
				t.Errorf("/metrics missing %q:\n%s", line, text)
			}
		}
		got, ok := bundle.HDRs[name]
		if !ok || float64(got.Count) != w[0] || got.Sum != w[1] {
			t.Errorf("flight bundle hdr_histograms[%s] = %+v (present %v), want count %g sum %g", name, got, ok, w[0], w[1])
		}
	}
	if d := bundle.HDRs[power.MetricEmergencyDuration]; d.Max != float64(slots) || slots < 128 {
		t.Errorf("emergency of %d slots reads back Max %g, want the overflowed length itself", slots, d.Max)
	}
	if l := bundle.HDRs[MetricReductionLatency]; l.Min != 0 {
		t.Errorf("reduction latency Min = %g, want the underflowed 0", l.Min)
	}
}
