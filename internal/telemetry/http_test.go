package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func serveGet(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

// handlerOf is the surface over just a registry and a tracer; either may
// be nil.
func handlerOf(r *Registry, t *Tracer) http.Handler {
	return NewHandler(HandlerConfig{Registry: r, Tracer: t})
}

func TestHandlerMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpr_core_price_searches_total", "Full price searches.").Add(7)
	h := r.HDR("mpr_agent_bid_rtt_seconds", "Bid RTT.")
	h.Record(0.002)
	h.Record(0.3)
	tr := NewTracer(16)

	res, body := serveGet(t, handlerOf(r, tr), "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"mpr_core_price_searches_total 7",
		"# TYPE mpr_agent_bid_rtt_seconds summary",
		`mpr_agent_bid_rtt_seconds{quantile="0.99"} 0.3`,
		"mpr_agent_bid_rtt_seconds_sum 0.302",
		"mpr_agent_bid_rtt_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "histogram") || strings.Contains(body, "_bucket") {
		t.Fatalf("/metrics carries a fixed-bucket series:\n%s", body)
	}
}

// TestHandlerMetricsHDRInvalid: negative, NaN and +Inf samples show on
// /metrics as their own count, in both forms, and leave sum and count
// alone (a NaN or +Inf sum would also make the JSON form unencodable).
func TestHandlerMetricsHDRInvalid(t *testing.T) {
	r := NewRegistry()
	h := r.HDR("mpr_agent_bid_rtt_seconds", "Bid RTT.")
	h.Record(0.002)
	h.Record(-0.001)
	h.Record(math.NaN())
	h.Record(math.Inf(1))

	_, body := serveGet(t, handlerOf(r, nil), "/metrics")
	for _, want := range []string{
		"mpr_agent_bid_rtt_seconds_sum 0.002\n",
		"mpr_agent_bid_rtt_seconds_count 1\n",
		"mpr_agent_bid_rtt_seconds_invalid 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	_, body = serveGet(t, handlerOf(r, nil), "/metrics?format=json")
	var doc struct {
		HDRs map[string]HDRSummary `json:"hdr_histograms"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if got := doc.HDRs["mpr_agent_bid_rtt_seconds"]; got.Invalid != 3 || got.Count != 1 || got.Min != 0.002 || got.Max != 0.002 {
		t.Fatalf("hdr summary = %+v, want invalid 3, count 1, min and max 0.002", got)
	}
}

// TestHandlerDebugMarketEndpoint: /debug/market is one JSON document,
// chronological, with or without ?format=json — the counters, gauges and
// HDR summaries it once rendered as HTML tables are /metrics.
func TestHandlerDebugMarketEndpoint(t *testing.T) {
	tr := NewTracer(16)
	run := tr.StartTrace("run-1")
	run.Emit(Event{Name: "market_round", Round: 1, Price: 0.8, TargetW: 500, SuppliedW: 420})
	run.Emit(Event{Name: "market_clear", Round: 2, Price: 0.95, TargetW: 500, SuppliedW: 503, Label: "converged"})

	res, body := serveGet(t, handlerOf(nil, tr), "/debug/market")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var doc struct {
		DroppedEvents uint64  `json:"dropped_events"`
		Events        []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(doc.Events) != 2 || doc.Events[0].Name != "market_round" ||
		doc.Events[1].Trace != "run-1" || doc.Events[1].Label != "converged" {
		t.Fatalf("events = %+v", doc.Events)
	}
	if _, asJSON := serveGet(t, handlerOf(nil, tr), "/debug/market?format=json"); asJSON != body {
		t.Fatalf("?format=json differs:\n%s\nvs\n%s", asJSON, body)
	}
}

func TestHandlerMetricsJSONFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpr_mgr_markets_total", "").Add(3)
	r.Gauge("mpr_power_budget_w", "").Set(125000)
	r.HDR("mpr_core_interactive_rounds", "").Record(7)
	res, body := serveGet(t, handlerOf(r, nil), "/metrics?format=json")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var doc struct {
		Counters map[string]int64      `json:"counters"`
		Gauges   map[string]float64    `json:"gauges"`
		HDRs     map[string]HDRSummary `json:"hdr_histograms"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if doc.Counters["mpr_mgr_markets_total"] != 3 || doc.Gauges["mpr_power_budget_w"] != 125000 {
		t.Fatalf("doc = %+v", doc)
	}
	if got := doc.HDRs["mpr_core_interactive_rounds"]; got.Count != 1 || got.Sum != 7 || got.Max != 7 {
		t.Fatalf("hdr summary = %+v, want one sample of 7", got)
	}
	if strings.Contains(body, `"histograms"`) {
		t.Fatalf("JSON form still carries the fixed-bucket key:\n%s", body)
	}
	// The nil registry serves the same three keys, empty.
	_, body = serveGet(t, handlerOf(nil, nil), "/metrics?format=json")
	if strings.TrimSpace(body) != `{"counters":{},"gauges":{},"hdr_histograms":{}}` {
		t.Fatalf("nil-registry JSON = %s", body)
	}
}

func TestHandlerDebugMarketJSONDropped(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 20; i++ { // 4 past capacity
		tr.Emit(Event{Name: "market_round", Round: i})
	}
	res, body := serveGet(t, handlerOf(nil, tr), "/debug/market?format=json")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var doc struct {
		DroppedEvents uint64  `json:"dropped_events"`
		Events        []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if doc.DroppedEvents != 4 {
		t.Fatalf("dropped_events = %d, want 4", doc.DroppedEvents)
	}
	if len(doc.Events) != 16 || doc.Events[0].Round != 4 {
		t.Fatalf("events = %d, first round = %d", len(doc.Events), doc.Events[0].Round)
	}
}

func TestHandlerSpansEndpoint(t *testing.T) {
	tr := NewTracer(16)
	em := tr.StartSpan("emergency", nil)
	em.StartChild("market_round").End()
	em.End()
	res, body := serveGet(t, handlerOf(nil, tr), "/debug/spans")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Name != "emergency" || doc.Spans[0].Parent != doc.Spans[1].ID {
		t.Fatalf("spans = %+v", doc.Spans)
	}
}

// TestHandlerSpansDropped: the span ring overwrites its oldest spans when
// full, and /debug/spans says how many it lost.
func TestHandlerSpansDropped(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 20; i++ {
		tr.StartSpan("s", nil).End()
	}
	_, body := serveGet(t, handlerOf(nil, tr), "/debug/spans")
	var doc struct {
		DroppedSpans *uint64 `json:"dropped_spans"`
		Spans        []Span  `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if doc.DroppedSpans == nil || *doc.DroppedSpans != 4 || len(doc.Spans) != 16 {
		t.Fatalf("dropped_spans = %v, spans = %d; want 4 and 16\n%s", doc.DroppedSpans, len(doc.Spans), body)
	}
	if doc.Spans[0].ID != 5 {
		t.Fatalf("oldest retained span = %d, want 5", doc.Spans[0].ID)
	}
}

func TestHandlerHealthzAndSeriesMounts(t *testing.T) {
	series := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"series":[]}`))
	})
	h := NewHandler(HandlerConfig{
		Series: series,
		Health: func() Health {
			return Health{Status: "ok", UptimeSeconds: 12.5, AgentsConnected: 3, LastSampleAgeSeconds: 0.25}
		},
	})
	res, body := serveGet(t, h, "/healthz")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", res.StatusCode)
	}
	var hz Health
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if hz.Status != "ok" || hz.AgentsConnected != 3 {
		t.Fatalf("health = %+v", hz)
	}
	if res, _ := serveGet(t, h, "/debug/series"); res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/series status = %d", res.StatusCode)
	}
	if res, body := serveGet(t, h, "/debug/pprof/cmdline"); res.StatusCode != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline status = %d", res.StatusCode)
	}
	// Index advertises every mounted endpoint.
	if _, body := serveGet(t, h, "/"); !strings.Contains(body, "/healthz") ||
		!strings.Contains(body, "/debug/series") || !strings.Contains(body, "/debug/pprof/") {
		t.Fatal("index must link optional endpoints when mounted")
	}
	// Unmounted optional endpoints 404 and are not advertised.
	bare := handlerOf(nil, nil)
	if res, _ := serveGet(t, bare, "/healthz"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("bare /healthz status = %d", res.StatusCode)
	}
	if _, body := serveGet(t, bare, "/"); strings.Contains(body, "/healthz") {
		t.Fatal("bare index must not advertise /healthz")
	}
}

func TestHandlerFlightMounts(t *testing.T) {
	flight := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/dump") {
			w.Write([]byte(`{"path":"flight-000001-manual.json"}`))
			return
		}
		w.Write([]byte(`{"enabled":true}`))
	})
	h := NewHandler(HandlerConfig{Flight: flight})
	if res, body := serveGet(t, h, "/debug/flight"); res.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"enabled"`) {
		t.Fatalf("/debug/flight = %d %q", res.StatusCode, body)
	}
	// The dump sub-path routes to the same handler (which distinguishes
	// by suffix), not the index 404.
	if res, body := serveGet(t, h, "/debug/flight/dump"); res.StatusCode != http.StatusOK ||
		!strings.Contains(body, "flight-000001") {
		t.Fatalf("/debug/flight/dump = %d %q", res.StatusCode, body)
	}
	if _, body := serveGet(t, h, "/"); !strings.Contains(body, "/debug/flight") {
		t.Fatal("index must link /debug/flight when mounted")
	}
	// The runtime snapshot is the runtime field of /debug/flight; there is
	// no /debug/rt.
	if res, _ := serveGet(t, h, "/debug/rt"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/rt status = %d, want 404", res.StatusCode)
	}
	bare := handlerOf(nil, nil)
	if res, _ := serveGet(t, bare, "/debug/flight"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("bare /debug/flight status = %d", res.StatusCode)
	}
}

func TestHandlerIndexContentType(t *testing.T) {
	res, _ := serveGet(t, handlerOf(nil, nil), "/")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content type = %q", ct)
	}
}

func TestHandlerNilRegistryAndTracer(t *testing.T) {
	h := handlerOf(nil, nil)
	if res, _ := serveGet(t, h, "/metrics"); res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if res, _ := serveGet(t, h, "/debug/market"); res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/market status = %d", res.StatusCode)
	}
	if res, _ := serveGet(t, h, "/nope"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", res.StatusCode)
	}
	if res, body := serveGet(t, h, "/"); res.StatusCode != http.StatusOK ||
		!strings.Contains(body, "/debug/market") {
		t.Fatal("index must link the endpoints")
	}
}
