package telemetry

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	httppprof "net/http/pprof"
	"sort"
	"strings"
	"time"
)

// debugMarketEvents is how many trace events the debug page renders.
const debugMarketEvents = 64

// Health is the /healthz payload: daemon uptime, connected agents, and
// sampling freshness. LastSampleAgeSeconds is negative when no sampler
// has fired yet (or none is wired).
type Health struct {
	Status               string  `json:"status"`
	UptimeSeconds        float64 `json:"uptime_seconds"`
	AgentsConnected      int     `json:"agents_connected"`
	LastSampleAgeSeconds float64 `json:"last_sample_age_seconds"`
}

// HandlerConfig wires the observability HTTP surface. Every field is
// optional; endpoints without a backing component serve empty (but
// valid) documents or are left unmounted.
type HandlerConfig struct {
	// Registry backs /metrics (Prometheus text, or JSON with
	// ?format=json).
	Registry *Registry
	// Tracer backs /debug/market (events + dropped count) and
	// /debug/spans.
	Tracer *Tracer
	// Series, when set, is mounted at /debug/series — the tsdb window
	// query handler (kept as a plain http.Handler so telemetry does not
	// depend on its own subpackage).
	Series http.Handler
	// Health, when set, backs /healthz.
	Health func() Health
	// Flight, when set, is mounted at /debug/flight and
	// /debug/flight/dump — the flight recorder's status/dump surface
	// (plain http.Handler for the same layering reason as Series).
	Flight http.Handler
	// RT, when set, is mounted at /debug/rt — the latest runtime-health
	// snapshot from the flight recorder's sampler.
	RT http.Handler
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// NewHandler returns the observability HTTP surface:
//
//	/metrics        Prometheus text exposition (?format=json for JSON)
//	/debug/market   last clearing rounds (?format=json for JSON + dropped count)
//	/debug/spans    completed hierarchical spans, JSON
//	/debug/build    binary build identity (module version, VCS revision, GOOS/GOARCH)
//	/debug/series   windowed time-series queries (when Series is wired)
//	/debug/flight   flight-recorder status; POST …/dump writes a bundle (when Flight is wired)
//	/debug/rt       latest runtime-health snapshot (when RT is wired)
//	/healthz        uptime / agents / sample freshness (when Health is wired)
//	/debug/pprof/*  net/http/pprof (when Pprof is set)
//
// Histograms render as quantile summaries in both /metrics forms (see
// Registry.HDR).
//
// mprd mounts this under its -metrics flag.
func NewHandler(cfg HandlerConfig) http.Handler {
	r, t := cfg.Registry, cfg.Tracer
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.FormValue("format") == "json" {
			writeMetricsJSON(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/market", func(w http.ResponseWriter, req *http.Request) {
		if req.FormValue("format") == "json" {
			writeJSON(w, struct {
				DroppedEvents uint64  `json:"dropped_events"`
				Events        []Event `json:"events"`
			}{t.Dropped(), nonNilEvents(t.Last(debugMarketEvents))})
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeDebugMarket(w, r, t)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		spans := t.Spans()
		if spans == nil {
			spans = []Span{}
		}
		writeJSON(w, struct {
			Spans []Span `json:"spans"`
		}{spans})
	})
	mux.HandleFunc("/debug/build", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, ReadBuildInfo())
	})
	if cfg.Series != nil {
		mux.Handle("/debug/series", cfg.Series)
	}
	if cfg.Flight != nil {
		mux.Handle("/debug/flight", cfg.Flight)
		mux.Handle("/debug/flight/dump", cfg.Flight)
	}
	if cfg.RT != nil {
		mux.Handle("/debug/rt", cfg.RT)
	}
	if cfg.Health != nil {
		health := cfg.Health
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, health())
		})
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		links := []string{"/metrics", "/debug/market", "/debug/spans", "/debug/build"}
		if cfg.Series != nil {
			links = append(links, "/debug/series")
		}
		if cfg.Flight != nil {
			links = append(links, "/debug/flight")
		}
		if cfg.RT != nil {
			links = append(links, "/debug/rt")
		}
		if cfg.Health != nil {
			links = append(links, "/healthz")
		}
		if cfg.Pprof {
			links = append(links, "/debug/pprof/")
		}
		var b strings.Builder
		b.WriteString("<html><body>")
		for i, l := range links {
			if i > 0 {
				b.WriteString(" · ")
			}
			fmt.Fprintf(&b, `<a href="%s">%s</a>`, l, l)
		}
		b.WriteString("</body></html>")
		fmt.Fprint(w, b.String())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}

func nonNilEvents(evs []Event) []Event {
	if evs == nil {
		return []Event{}
	}
	return evs
}

// writeMetricsJSON renders the registry snapshot as JSON — the
// machine-readable sibling of the Prometheus text form. Map keys are
// sorted by encoding/json, so the document is deterministic.
func writeMetricsJSON(w http.ResponseWriter, r *Registry) {
	s := r.Snapshot()
	if s == nil {
		s = &Snapshot{
			Counters: map[string]int64{},
			Gauges:   map[string]float64{},
			HDRs:     map[string]HDRSummary{},
		}
	}
	writeJSON(w, struct {
		Counters map[string]int64      `json:"counters"`
		Gauges   map[string]float64    `json:"gauges"`
		HDRs     map[string]HDRSummary `json:"hdr_histograms"`
	}{s.Counters, s.Gauges, s.HDRs})
}

func writeDebugMarket(w http.ResponseWriter, r *Registry, t *Tracer) {
	var b strings.Builder
	b.WriteString("<html><head><title>mpr market debug</title></head><body>\n")
	b.WriteString("<h1>Market debug</h1>\n")

	events := t.Last(debugMarketEvents)
	fmt.Fprintf(&b, "<h2>Last %d clearing-round events</h2>\n", len(events))
	fmt.Fprintf(&b, "<p>events dropped by the ring: %d</p>\n", t.Dropped())
	b.WriteString("<table border=\"1\" cellpadding=\"3\">\n")
	b.WriteString("<tr><th>seq</th><th>time</th><th>trace</th><th>event</th><th>slot</th><th>round</th><th>price</th><th>target W</th><th>supplied W</th><th>value</th><th>label</th></tr>\n")
	for i := len(events) - 1; i >= 0; i-- { // newest first
		e := events[i]
		ts := ""
		if e.TimeNS > 0 {
			ts = time.Unix(0, e.TimeNS).UTC().Format("15:04:05.000")
		}
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%s</td></tr>\n",
			e.Seq, ts, html.EscapeString(e.Trace), html.EscapeString(e.Name),
			e.Slot, e.Round, e.Price, e.TargetW, e.SuppliedW, e.Value,
			html.EscapeString(e.Label))
	}
	b.WriteString("</table>\n")

	if s := r.Snapshot(); s != nil {
		b.WriteString("<h2>Counters</h2>\n<table border=\"1\" cellpadding=\"3\"><tr><th>name</th><th>value</th></tr>\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td></tr>\n", html.EscapeString(name), s.Counters[name])
		}
		b.WriteString("</table>\n<h2>Gauges</h2>\n<table border=\"1\" cellpadding=\"3\"><tr><th>name</th><th>value</th></tr>\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%g</td></tr>\n", html.EscapeString(name), s.Gauges[name])
		}
		b.WriteString("</table>\n<h2>Histograms (quantile summaries)</h2>\n<table border=\"1\" cellpadding=\"3\"><tr><th>name</th><th>count</th><th>mean</th><th>min</th><th>p50</th><th>p90</th><th>p99</th><th>p999</th><th>max</th></tr>\n")
		for _, name := range sortedKeys(s.HDRs) {
			h := s.HDRs[name]
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%.4g</td><td>%.4g</td></tr>\n",
				html.EscapeString(name), h.Count, h.Mean, h.Min, h.P50, h.P90, h.P99, h.P999, h.Max)
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	_, _ = w.Write([]byte(b.String()))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
