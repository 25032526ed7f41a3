package agentproto

import (
	"testing"
	"time"

	"mpr/internal/telemetry"
)

// TestManagerTelemetry runs a live TCP market with a private registry and
// tracer and checks the manager's connect/round/RTT instrumentation.
func TestManagerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(1024)
	m, err := NewManager("127.0.0.1:0", ManagerConfig{
		RoundTimeout: 500 * time.Millisecond,
		Telemetry:    reg,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	apps := []string{"XSBench", "RSBench", "CoMD"}
	for _, app := range apps {
		dialAgent(t, m, app, app, 16)
	}
	waitAgents(t, m, len(apps))

	out, err := m.RunMarket(1500)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counter(MetricAgentEvents + `{event="connect"}`); got != int64(len(apps)) {
		t.Fatalf("connects = %d, want %d", got, len(apps))
	}
	if got := s.Gauges[MetricAgentsConnected]; got != float64(len(apps)) {
		t.Fatalf("connected gauge = %g, want %d", got, len(apps))
	}
	if got := s.Counter(MetricMarkets); got != 1 {
		t.Fatalf("markets = %d, want 1", got)
	}
	if got := s.Counter(MetricRounds); got != int64(out.Result.Rounds) {
		t.Fatalf("rounds counter = %d, result rounds %d", got, out.Result.Rounds)
	}
	// One RTT observation per agent per round, minus any timeouts. The
	// RTT metric is an HDR histogram, surfaced as a quantile summary.
	rtt := s.HDR(MetricBidRTT)
	want := int64(len(apps)*out.Result.Rounds) - s.Counter(MetricBidTimeouts)
	if rtt.Count != want {
		t.Fatalf("RTT observations = %d, want %d", rtt.Count, want)
	}
	if rtt.Count > 0 && rtt.Sum <= 0 {
		t.Fatalf("RTT sum = %g, want > 0", rtt.Sum)
	}
	if got := s.Counter(MetricMalformed); got != 0 {
		t.Fatalf("malformed = %d, want 0", got)
	}

	// The tracer holds one cleared market_round span per round under
	// the market span, which records how the market stopped.
	var market telemetry.Span
	rounds := 0
	for _, sp := range tracer.Spans() {
		switch sp.Name {
		case "market":
			market = sp
		case "market_round":
			if sp.Attr("price") != "" && sp.Attr("supplied_w") != "" {
				rounds++
			}
		}
	}
	if stop := market.Attr("stop"); stop != "converged" && stop != "budget_exhausted" {
		t.Fatalf("market span stop = %q, attrs %+v", stop, market.Attrs)
	}
	if rounds != out.Result.Rounds {
		t.Fatalf("trace: %d cleared market_round spans, want %d", rounds, out.Result.Rounds)
	}
}
