package telemetry

import "testing"

func TestNilSpanIsNop(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("emergency", nil)
	if s != nil {
		t.Fatal("nil tracer must hand out the nil span")
	}
	s.SetAttr("k", "v") // must not panic
	s.End()
	if s.ID() != 0 {
		t.Fatal("nil span ID must be 0")
	}
	if c := s.StartChild("market"); c != nil {
		t.Fatal("nil span's child must be nil")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer must have no spans")
	}
}

// TestSpanHierarchy builds the emergency → market_round → respond_bids
// shape the engine and agentproto produce and checks parent links,
// attrs, and completion ordering.
func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer(16)
	em := tr.StartSpan("emergency", nil)
	em.SetAttr("slot", "42")
	round := em.StartChild("market_round")
	bids := round.StartChild("respond_bids")
	bids.End()
	round.End()
	em.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	// Completion order: innermost first.
	if spans[0].Name != "respond_bids" || spans[1].Name != "market_round" || spans[2].Name != "emergency" {
		t.Fatalf("order = %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	emS, roundS, bidsS := spans[2], spans[1], spans[0]
	if emS.Parent != 0 {
		t.Fatalf("emergency parent = %d, want root", emS.Parent)
	}
	if roundS.Parent != emS.ID || bidsS.Parent != roundS.ID {
		t.Fatalf("parent chain broken: %d->%d, %d->%d", bidsS.Parent, roundS.ID, roundS.Parent, emS.ID)
	}
	if len(emS.Attrs) != 1 || emS.Attrs[0] != (Attr{Key: "slot", Value: "42"}) {
		t.Fatalf("attrs = %+v", emS.Attrs)
	}
	for _, s := range spans {
		if s.StartNS == 0 || s.EndNS < s.StartNS {
			t.Fatalf("span %s times: %d..%d", s.Name, s.StartNS, s.EndNS)
		}
	}
	// IDs are unique and assigned at start: emergency < round < bids.
	if !(emS.ID < roundS.ID && roundS.ID < bidsS.ID) {
		t.Fatalf("ID order: %d %d %d", emS.ID, roundS.ID, bidsS.ID)
	}
}

// TestSpanRingWraparound overflows the span ring and checks the newest
// completions survive.
func TestSpanRingWraparound(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		s := tr.StartSpan("s", nil)
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("spans = %d, want 16", len(spans))
	}
	if spans[0].ID != 25 || spans[15].ID != 40 {
		t.Fatalf("surviving window = %d..%d, want 25..40", spans[0].ID, spans[15].ID)
	}
}

// TestWithPprofLabels just exercises the wrapper: f runs synchronously.
func TestWithPprofLabels(t *testing.T) {
	ran := false
	WithPprofLabels("market", func() { ran = true })
	if !ran {
		t.Fatal("WithPprofLabels must run f")
	}
}

// TestTracerDroppedCount overflows the span ring and asserts the dropped
// count /debug/spans serves as dropped_spans: an exactly-full ring has
// lost nothing.
func TestTracerDroppedCount(t *testing.T) {
	tr := NewTracer(16)
	dropped := func() uint64 { _, d := tr.spanWindow(); return d }
	if dropped() != 0 {
		t.Fatal("fresh tracer reports drops")
	}
	for i := 0; i < 16; i++ {
		tr.StartSpan("s", nil).End()
	}
	if got := dropped(); got != 0 {
		t.Fatalf("exactly-full ring dropped %d", got)
	}
	for i := 0; i < 25; i++ {
		tr.RecordSpan("s", nil, 1, 1)
	}
	if got := dropped(); got != 25 {
		t.Fatalf("dropped = %d, want 25", got)
	}
	var nilT *Tracer
	if _, d := nilT.spanWindow(); d != 0 {
		t.Fatal("nil tracer must report 0 drops")
	}
}
