package sim

import (
	"runtime"
	"slices"
	"strconv"
	"testing"

	"mpr/internal/telemetry"
)

// TestResultTelemetryConsistency cross-checks the span tree a traced run
// keeps against the Result's own counts: every emergency a root span, one
// market child per invocation carrying the clear's slot, price, target,
// feasibility and rounds, and MPR-INT market_round grandchildren under
// each market.
func TestResultTelemetryConsistency(t *testing.T) {
	tr := testTrace(t, 3)
	res, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, TraceEvents: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmergencyCount == 0 {
		t.Fatal("test trace produced no emergencies — nothing to check")
	}
	byID := map[uint64]telemetry.Span{}
	for _, s := range res.Spans {
		byID[s.ID] = s
	}
	counts := map[string]int{}
	infeasible := 0
	var rounds, sumPrice float64
	for _, s := range res.Spans {
		counts[s.Name]++
		parent := byID[s.Parent].Name
		switch s.Name {
		case "emergency":
			if s.Parent != 0 {
				t.Fatalf("emergency span under %q", parent)
			}
		case "market":
			if parent != "emergency" {
				t.Fatalf("market span under %q, want an emergency", parent)
			}
			attrs := map[string]string{}
			var keys []string
			for _, a := range s.Attrs {
				attrs[a.Key] = a.Value
				keys = append(keys, a.Key)
			}
			if want := []string{"slot", "price", "target_w", "feasible", "rounds"}; !slices.Equal(keys, want) {
				t.Fatalf("market span attributes %v, want %v", keys, want)
			}
			price, err := strconv.ParseFloat(attrs["price"], 64)
			if err != nil {
				t.Fatal(err)
			}
			if tw, err := strconv.ParseFloat(attrs["target_w"], 64); err != nil || tw <= 0 {
				t.Fatalf("market span target_w %q: %v", attrs["target_w"], err)
			}
			r, err := strconv.Atoi(attrs["rounds"])
			if err != nil {
				t.Fatal(err)
			}
			sumPrice += price
			rounds += float64(r)
			if attrs["feasible"] == "false" {
				infeasible++
			}
		case "market_round":
			if parent != "market" {
				t.Fatalf("market_round span under %q, want a market", parent)
			}
		}
	}
	if counts["emergency"] != res.EmergencyCount {
		t.Errorf("%d emergency spans, %d emergencies", counts["emergency"], res.EmergencyCount)
	}
	if counts["market"] != res.MarketInvocations || infeasible != res.InfeasibleEvents {
		t.Errorf("%d market spans (%d infeasible), result %d invocations (%d infeasible)",
			counts["market"], infeasible, res.MarketInvocations, res.InfeasibleEvents)
	}
	// The attributes round-trip their float64s, so the spans sum to the
	// Result's means in the engine's own order.
	if n := float64(res.MarketInvocations); rounds/n != res.MeanRounds || sumPrice/n != res.MeanClearingPrice {
		t.Errorf("spans give mean rounds %v and price %v, result %v and %v",
			rounds/n, sumPrice/n, res.MeanRounds, res.MeanClearingPrice)
	}
	if counts["market_round"] == 0 {
		t.Errorf("no market_round spans for MPR-INT: %v", counts)
	}
}

// TestDefaultRunKeepsNoTrace pins tracing as opt-in: a Result keeps no
// span window unless Config.TraceEvents asks for one, and a
// default Result of the sparse shape stays small enough that callers can
// keep thousands of them.
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
	if plain.Spans != nil {
		t.Fatalf("default run retained %d spans, want none", len(plain.Spans))
	}

	// The whole run, retained: the window is larger than the run's spans.
	full := cfg
	full.TraceEvents = 1 << 16
	all := run(full).Spans
	if len(all) == 0 || len(all) == full.TraceEvents {
		t.Fatalf("a %d-span window kept %d spans, want the whole run", full.TraceEvents, len(all))
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
