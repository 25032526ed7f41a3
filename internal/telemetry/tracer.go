package telemetry

import (
	"sync"
	"time"
)

// Event is one structured trace record. The schema is a fixed flat struct
// rather than a field map so emitting into the ring allocates nothing;
// producers fill the fields that apply and leave the rest zero (omitted
// from the JSON encoding).
type Event struct {
	// Seq is the tracer-assigned sequence number (monotonic per tracer).
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock timestamp in Unix nanoseconds, stamped by
	// Emit when zero.
	TimeNS int64 `json:"time_ns,omitempty"`
	// Trace identifies the run/market the event belongs to (stamped by a
	// Trace handle).
	Trace string `json:"trace,omitempty"`
	// Name is the event type, e.g. "market_round", "market_clear",
	// "eviction".
	Name string `json:"name"`
	// Round is the market round.
	Round int `json:"round,omitempty"`
	// Price, TargetW, SuppliedW carry clearing-round economics.
	Price     float64 `json:"price,omitempty"`
	TargetW   float64 `json:"target_w,omitempty"`
	SuppliedW float64 `json:"supplied_w,omitempty"`
	// Value is a free numeric payload (duration, depth, …); Label a free
	// string payload (mode, job id, reason, …).
	Value float64 `json:"value,omitempty"`
	Label string  `json:"label,omitempty"`
}

// Tracer is a fixed-capacity ring buffer of Events. When the ring is
// full the oldest events are overwritten; Events and Last always return
// the surviving window in chronological order, and emitting allocates
// nothing. A nil *Tracer is the Nop tracer.
type Tracer struct {
	mu     sync.Mutex
	events Ring[Event]

	// Hierarchical spans (see span.go) share the tracer but keep their
	// own ring — span lifecycles are much longer than event emissions
	// and must not evict clearing-round events.
	spans   Ring[Span]
	spanSeq uint64 // span IDs, assigned at StartSpan
}

// NewTracer builds a tracer retaining the last size events (minimum 16,
// default 256 when size ≤ 0).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = 256
	}
	if size < 16 {
		size = 16
	}
	return &Tracer{events: NewRing[Event](size), spans: NewRing[Span](size)}
}

// Emit records one event, assigning its sequence number and (when unset)
// its wall-clock timestamp. No-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Seq = t.events.Total() + 1
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	t.events.Push(e)
	t.mu.Unlock()
}

// Dropped returns how many events the ring has overwritten — the
// overflow-observability counter behind /debug/market's dropped-count
// field and mprd's events_dropped metric. 0 on a nil tracer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.Total() - uint64(t.events.Len())
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.Len()
}

// Events returns a chronological copy of the retained window. Nil tracer
// returns nil.
func (t *Tracer) Events() []Event {
	return t.Last(-1)
}

// Last returns a chronological copy of the most recent n retained events
// (all of them when n < 0 or n exceeds the window). Nil tracer returns
// nil.
func (t *Tracer) Last(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if size := t.events.Len(); n < 0 || n > size {
		n = size
	}
	return t.events.Last(make([]Event, 0, n), n)
}

// StartTrace returns a handle stamping events with the given trace ID —
// one handle per run/market keeps concurrent producers distinguishable in
// a shared ring. Nil tracer returns the nil (Nop) handle.
func (t *Tracer) StartTrace(id string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{t: t, id: id}
}

// Trace is a per-run handle over a Tracer. A nil *Trace is a no-op.
type Trace struct {
	t  *Tracer
	id string
}

// Emit stamps the event with the handle's trace ID and records it.
// No-op on a nil handle.
func (tr *Trace) Emit(e Event) {
	if tr == nil {
		return
	}
	e.Trace = tr.id
	tr.t.Emit(e)
}
