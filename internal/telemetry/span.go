package telemetry

import (
	"context"
	"runtime/pprof"
	"time"
)

// Attr is one span attribute. Attributes are an ordered list rather
// than a map so span renderings are deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one finished hierarchical trace span: a named wall-clock
// interval with a parent link, so an emergency span can contain its
// market-round and RespondBid child spans. Completed spans live in the
// tracer's span ring and render at /debug/spans.
type Span struct {
	// ID is the tracer-assigned span identifier (monotonic per tracer,
	// assigned at start); Parent is the enclosing span's ID (0 = root).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the span type, e.g. "emergency", "market", "market_round",
	// "respond_bids".
	Name string `json:"name"`
	// StartNS and EndNS are wall-clock Unix nanoseconds.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Attrs carry free-form span annotations (slot, target, rounds, …).
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration returns the span's wall-clock length.
func (s Span) Duration() time.Duration {
	return time.Duration(s.EndNS - s.StartNS)
}

// Attr returns the value of the span's attribute key ("" when unset).
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// ActiveSpan is an in-flight span handle. A nil *ActiveSpan is a no-op
// (the handle the nil tracer gives out), so instrumented code never
// branches on configuration.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// StartSpan opens a span under the given parent (nil = root). The span
// is recorded into the tracer's span ring when End is called; spans
// abandoned without End are dropped. Nil tracer returns the nil handle.
func (t *Tracer) StartSpan(name string, parent *ActiveSpan) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.spanSeq++
	id := t.spanSeq
	t.mu.Unlock()
	s := &ActiveSpan{t: t, span: Span{ID: id, Name: name, StartNS: time.Now().UnixNano()}}
	if parent != nil {
		s.span.Parent = parent.span.ID
	}
	return s
}

// ID returns the span's identifier (0 for nil).
func (s *ActiveSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// SetAttr annotates the span. No-op on a nil handle.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
}

// StartChild opens a child span under this one. On a nil handle the
// child is nil too, so an uninstrumented call tree stays free.
func (s *ActiveSpan) StartChild(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return s.t.StartSpan(name, s)
}

// End stamps the span's end time and records it in the tracer's span
// ring. Ending twice records twice; don't. No-op on a nil handle.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.EndNS = time.Now().UnixNano()
	s.t.mu.Lock()
	s.t.spans.Push(s.span)
	s.t.mu.Unlock()
}

// RecordSpan records an externally timed span — one whose start and end
// were measured by the caller rather than by Start/End bracketing — into
// the span ring as a child of parent (nil = root), returning the
// assigned span ID (0 on a nil tracer). The agentproto manager uses it
// for per-agent respond_bid spans: the interval runs from the round's
// price broadcast to that agent's bid receipt, and the bids of many
// agents overlap, so handle-based bracketing cannot express them. It
// also records instants (an eviction, a coalesced bid) as zero-length
// spans.
func (t *Tracer) RecordSpan(name string, parent *ActiveSpan, startNS, endNS int64, attrs ...Attr) uint64 {
	if t == nil {
		return 0
	}
	s := Span{Name: name, Parent: parent.ID(), StartNS: startNS, EndNS: endNS}
	if len(attrs) > 0 {
		s.Attrs = append([]Attr(nil), attrs...)
	}
	t.mu.Lock()
	t.spanSeq++
	s.ID = t.spanSeq
	t.spans.Push(s)
	t.mu.Unlock()
	return s.ID
}

// Spans returns a copy of the retained completed spans in completion
// order. Nil tracer returns nil.
func (t *Tracer) Spans() []Span {
	spans, _ := t.spanWindow()
	return spans
}

// spanWindow returns Spans together with how many completed spans the
// ring has overwritten — the dropped_spans field of /debug/spans.
func (t *Tracer) spanWindow() ([]Span, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.spans.Len()
	return t.spans.Last(make([]Span, 0, n), n), t.spans.Total() - uint64(n)
}

// WithPprofLabels runs f with the "mpr_span" profiler label set, so CPU
// profiles taken from /debug/pprof attribute samples to the span that
// was executing — the engine and the agentproto fan-out call this on
// span boundaries (goroutines started inside f inherit the label).
func WithPprofLabels(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("mpr_span", name), func(context.Context) {
		f()
	})
}
