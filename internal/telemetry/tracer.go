package telemetry

import "sync"

// Tracer is a fixed-capacity ring of completed Spans (span.go), the one
// causal record of a market: when the ring is full the oldest spans are
// overwritten, Spans returns the surviving window in completion order,
// and /debug/spans reports how many were lost. A nil *Tracer is the Nop
// tracer.
type Tracer struct {
	mu      sync.Mutex
	spans   Ring[Span]
	spanSeq uint64 // span IDs, assigned at StartSpan
}

// NewTracer builds a tracer retaining the last size completed spans
// (minimum 16, default 256 when size ≤ 0).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = 256
	}
	if size < 16 {
		size = 16
	}
	return &Tracer{spans: NewRing[Span](size)}
}

// Trace is an inert handle that records nothing: a market's record is its
// span tree. It and StartTrace remain only because the benchmark still
// sets core.InteractiveConfig.Trace; they go once ROADMAP item 1(g)
// removes that use.
type Trace struct{}

// StartTrace returns an inert handle (nil on a nil tracer).
func (t *Tracer) StartTrace(string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{}
}
