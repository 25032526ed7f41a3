package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strings"
)

// debugMarketEvents is how many trace events /debug/market serves.
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
	// Tracer backs /debug/market and /debug/spans (each window with its
	// dropped count).
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
}

// NewHandler returns the observability HTTP surface:
//
//	/metrics        Prometheus text exposition (?format=json for JSON)
//	/debug/market   last trace events + dropped count, JSON
//	/debug/spans    completed hierarchical spans + dropped count, JSON
//	/debug/series   windowed time-series queries (when Series is wired)
//	/debug/flight   flight-recorder status; POST …/dump writes a bundle (when Flight is wired)
//	/healthz        uptime / agents / sample freshness (when Health is wired)
//	/debug/pprof/*  net/http/pprof
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
	mux.HandleFunc("/debug/market", func(w http.ResponseWriter, _ *http.Request) {
		events := t.Last(debugMarketEvents)
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, struct {
			DroppedEvents uint64  `json:"dropped_events"`
			Events        []Event `json:"events"`
		}{t.Dropped(), events})
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		spans, dropped := t.spanWindow()
		if spans == nil {
			spans = []Span{}
		}
		writeJSON(w, struct {
			DroppedSpans uint64 `json:"dropped_spans"`
			Spans        []Span `json:"spans"`
		}{dropped, spans})
	})
	if cfg.Series != nil {
		mux.Handle("/debug/series", cfg.Series)
	}
	if cfg.Flight != nil {
		mux.Handle("/debug/flight", cfg.Flight)
		mux.Handle("/debug/flight/dump", cfg.Flight)
	}
	if cfg.Health != nil {
		health := cfg.Health
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, health())
		})
	}
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		links := []string{"/metrics", "/debug/market", "/debug/spans"}
		if cfg.Series != nil {
			links = append(links, "/debug/series")
		}
		if cfg.Flight != nil {
			links = append(links, "/debug/flight")
		}
		if cfg.Health != nil {
			links = append(links, "/healthz")
		}
		links = append(links, "/debug/pprof/")
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
