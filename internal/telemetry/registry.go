// Package telemetry is the repo's stdlib-only observability layer: an
// allocation-conscious metrics registry (atomic counters and gauges,
// labeled counter families, and the lock-striped log-bucketed histograms
// of the hdr subpackage) plus a structured event tracer (ring-buffered
// Event records with per-run Trace handles).
//
// There is no process-global registry: a library records only into a
// registry or tracer its caller hands it. Two consumption paths are
// supported. A caller that wants a batch
// computation's metrics (a simulator run, a test) hands in a registry and
// takes a point-in-time Snapshot of it afterwards; long-running daemons
// expose the registry over HTTP in Prometheus text format and the
// tracer's rings as JSON documents (see NewHandler).
//
// Every instrument is nil-safe: methods on a nil *Registry return nil
// metrics, and methods on nil metrics are no-ops. A nil registry is
// therefore the Nop registry — the zero-config fast path costs one nil
// check per instrumentation point and allocates nothing.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"mpr/internal/telemetry/hdr"
)

// Nop returns the no-op registry: nil. All registry and metric methods
// tolerate nil receivers, so instrumented code never branches on
// configuration — it just calls through.
func Nop() *Registry { return nil }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down, stored as atomic
// float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// CounterFamily is a set of counters sharing a name, distinguished by one
// label value ("labeled family"). Resolved children are cached; the hot
// path should resolve once with With and keep the *Counter.
type CounterFamily struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*Counter
	order             []string
}

// With returns the counter for the given label value, creating it on
// first use. Returns nil (the nop counter) on a nil family.
func (f *CounterFamily) With(value string) *Counter {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.children[value]
	if c == nil {
		c = &Counter{}
		f.children[value] = c
		f.order = append(f.order, value)
	}
	return c
}

// metric kinds for exposition ordering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFamily
	kindHDR
)

type metricEntry struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	family     *CounterFamily
	hdr        *hdr.Histogram
}

// Registry holds named metrics. All getters are get-or-create and
// idempotent: asking twice for the same name returns the same metric, so
// packages can resolve instruments at init without coordination.
// A nil *Registry is the Nop registry.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*metricEntry
	ordered []*metricEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metricEntry)}
}

// getOrCreate returns the entry for name, creating it with init (run
// under the registry lock) on first use. Registration is not a hot path;
// hot paths resolve their metrics once and keep the handles.
func (r *Registry) getOrCreate(name, help string, kind metricKind, init func(*metricEntry)) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.byName[name]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &metricEntry{name: name, help: help, kind: kind}
	init(e)
	r.byName[name] = e
	r.ordered = append(r.ordered, e)
	return e
}

func (r *Registry) lookup(name string, kind metricKind) *metricEntry {
	r.mu.RLock()
	e := r.byName[name]
	r.mu.RUnlock()
	if e != nil && e.kind == kind {
		return e
	}
	return nil
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, kindCounter, func(e *metricEntry) {
		e.counter = &Counter{}
	}).counter
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, kindGauge, func(e *metricEntry) {
		e.gauge = &Gauge{}
	}).gauge
}

// HDR returns the named high-dynamic-range histogram (see the hdr
// subpackage: log-bucketed, ~1 ns–100 s range, ≤3.1% relative error,
// mergeable snapshots), creating it on first use. HDR histograms render
// as Prometheus summaries (quantile series plus _sum/_count) because
// their ~1200-bucket layout is too fine for useful _bucket exposition.
// Returns nil (the no-op histogram) on a nil registry.
func (r *Registry) HDR(name, help string) *hdr.Histogram {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, kindHDR, func(e *metricEntry) {
		e.hdr = hdr.New()
	}).hdr
}

// CounterFamily returns the named labeled counter family, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) CounterFamily(name, help, label string) *CounterFamily {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, kindCounterFamily, func(e *metricEntry) {
		e.family = &CounterFamily{name: name, help: help, label: label,
			children: make(map[string]*Counter)}
	}).family
}

// CounterValue reads a plain counter by name (0 when absent or nil
// registry).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	if e := r.lookup(name, kindCounter); e != nil {
		return e.counter.Value()
	}
	return 0
}

// GaugeValue reads a gauge by name (0 when absent or nil registry).
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	if e := r.lookup(name, kindGauge); e != nil {
		return e.gauge.Value()
	}
	return 0
}

// HDRSummary is the serializable point-in-time digest of an HDR
// histogram: pre-computed quantiles instead of the ~1200 raw buckets.
// Consumers needing mergeable full-resolution state take hdr.Snapshot
// from the histogram handle instead. Invalid counts negative, NaN and
// +Inf samples; they are in no other field.
type HDRSummary struct {
	Count   int64   `json:"count"`
	Invalid int64   `json:"invalid"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	P999    float64 `json:"p999"`
}

// summarizeHDR digests one HDR snapshot.
func summarizeHDR(s hdr.Snapshot) HDRSummary {
	return HDRSummary{
		Count: s.Count, Invalid: s.Invalid, Sum: s.Sum, Min: s.Min, Max: s.Max, Mean: s.Mean(),
		P50: s.Quantile(0.50), P90: s.Quantile(0.90),
		P99: s.Quantile(0.99), P999: s.Quantile(0.999),
	}
}

// Snapshot is a point-in-time copy of a registry's metrics, serializable
// for results and offline analysis. Family children appear in Counters
// under the expanded name `family{label="value"}`.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	HDRs     map[string]HDRSummary
}

// Counter reads a counter from the snapshot (0 when absent).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// HDR reads an HDR summary (zero value when absent).
func (s *Snapshot) HDR(name string) HDRSummary {
	if s == nil {
		return HDRSummary{}
	}
	return s.HDRs[name]
}

// Snapshot captures all metrics. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	entries := append([]*metricEntry(nil), r.ordered...)
	r.mu.RUnlock()
	s := &Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
		HDRs:     make(map[string]HDRSummary),
	}
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			s.Counters[e.name] = e.counter.Value()
		case kindGauge:
			s.Gauges[e.name] = e.gauge.Value()
		case kindHDR:
			s.HDRs[e.name] = summarizeHDR(e.hdr.Snapshot())
		case kindCounterFamily:
			f := e.family
			f.mu.Lock()
			for _, v := range f.order {
				s.Counters[fmt.Sprintf("%s{%s=%q}", f.name, f.label, v)] = f.children[v].Value()
			}
			f.mu.Unlock()
		}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (counters, gauges, and HDR histograms as summaries: quantile
// series plus _sum/_count/_invalid). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	entries := append([]*metricEntry(nil), r.ordered...)
	r.mu.RUnlock()
	var b strings.Builder
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, e.help)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", e.name, e.name, formatFloat(e.gauge.Value()))
		case kindCounterFamily:
			fmt.Fprintf(&b, "# TYPE %s counter\n", e.name)
			f := e.family
			f.mu.Lock()
			for _, v := range f.order {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", e.name, f.label, escapeLabel(v), f.children[v].Value())
			}
			f.mu.Unlock()
		case kindHDR:
			// HDR histograms expose as summaries: pre-computed quantiles
			// instead of ~1200 _bucket lines.
			fmt.Fprintf(&b, "# TYPE %s summary\n", e.name)
			sum := summarizeHDR(e.hdr.Snapshot())
			for _, q := range []struct {
				label string
				v     float64
			}{{"0.5", sum.P50}, {"0.9", sum.P90}, {"0.99", sum.P99}, {"0.999", sum.P999}} {
				fmt.Fprintf(&b, "%s{quantile=%q} %s\n", e.name, q.label, formatFloat(q.v))
			}
			fmt.Fprintf(&b, "%s_sum %s\n", e.name, formatFloat(sum.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", e.name, sum.Count)
			fmt.Fprintf(&b, "%s_invalid %d\n", e.name, sum.Invalid)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}
