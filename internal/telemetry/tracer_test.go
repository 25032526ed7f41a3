package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilTracerIsNop(t *testing.T) {
	var tr *Tracer
	if tr.Spans() != nil || tr.StartSpan("x", nil) != nil {
		t.Fatal("nil tracer must be empty and hand out the nil span")
	}
	if id := tr.RecordSpan("x", nil, 1, 2); id != 0 {
		t.Fatalf("nil tracer recorded span %d", id)
	}
	if tr.StartTrace("run") != nil {
		t.Fatal("nil tracer must hand out the nil trace handle")
	}
}

// TestTracerSequenceAndWindow: StartSpan and RecordSpan draw IDs from one
// sequence, a bracketed span is stamped with its own start and end, and
// Spans lists the window in completion order.
func TestTracerSequenceAndWindow(t *testing.T) {
	tr := NewTracer(16)
	outer := tr.StartSpan("outer", nil)
	for i := 0; i < 3; i++ {
		tr.RecordSpan("instant", outer, int64(100+i), int64(100+i))
	}
	outer.End()
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len = %d, want 4", len(spans))
	}
	for i, s := range spans[:3] {
		if s.ID != uint64(i+2) || s.Parent != 1 || s.StartNS != int64(100+i) || s.Duration() != 0 {
			t.Fatalf("span %d: %+v", i, s)
		}
	}
	if o := spans[3]; o.ID != 1 || o.Name != "outer" || o.StartNS == 0 || o.EndNS < o.StartNS {
		t.Fatalf("outer span: %+v", o)
	}
}

// TestTracerWraparound fills the ring past capacity with externally timed
// spans and checks the surviving window is the newest ones, still in
// order, with the caller's timestamps and a copy of its attributes.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(16)
	const recorded = 40
	attrs := []Attr{{Key: "agent", Value: "a"}}
	for i := 0; i < recorded; i++ {
		tr.RecordSpan("s", nil, int64(i+1), int64(i+2), attrs...)
	}
	attrs[0].Value = "changed"
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("len = %d, want 16", len(spans))
	}
	for i, s := range spans {
		want := recorded - 16 + i
		if s.ID != uint64(want+1) || s.StartNS != int64(want+1) || s.EndNS != int64(want+2) {
			t.Fatalf("span %d: %+v, want ID %d", i, s, want+1)
		}
		if len(s.Attrs) != 1 || s.Attrs[0].Value != "a" {
			t.Fatalf("span %d attrs %+v alias the caller's", i, s.Attrs)
		}
	}
}

// TestTracerConcurrentDropAccounting hammers one span ring from many
// writers — half ending bracketed spans, half recording externally timed
// ones — and pins the overflow invariant /debug/spans reports on: every
// recorded span is either still retained or counted in dropped_spans,
// exactly once, even when wraparound and the ID sequence are contended.
// Run under -race it also covers the ring's locking discipline.
func TestTracerConcurrentDropAccounting(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
		total     = writers * perWriter
	)
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if w%2 == 0 {
					s := tr.StartSpan("burst", nil)
					s.SetAttr("writer", "even")
					s.End()
				} else {
					tr.RecordSpan("burst", nil, int64(i), int64(i), Attr{Key: "writer", Value: "odd"})
				}
			}
		}(w)
	}
	// Concurrent readers must never observe retained+dropped exceeding
	// what has been recorded.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			spans, dropped := tr.spanWindow()
			if got := uint64(len(spans)) + dropped; got > total {
				t.Errorf("retained+dropped = %d mid-run, exceeds %d recorded", got, total)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	spans, dropped := tr.spanWindow()
	if len(spans) != 64 || uint64(len(spans))+dropped != total {
		t.Fatalf("retained(%d) + dropped(%d), want 64 + %d", len(spans), dropped, total-64)
	}
	// Every retained span is a distinct ID from the sequence.
	seen := map[uint64]bool{}
	for _, s := range spans {
		if s.ID < 1 || s.ID > total || seen[s.ID] {
			t.Fatalf("retained span ID %d repeated or outside 1…%d", s.ID, total)
		}
		seen[s.ID] = true
	}

	// /debug/spans reports the same counter.
	rec := httptest.NewRecorder()
	NewHandler(HandlerConfig{Tracer: tr}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	var body struct {
		DroppedSpans uint64 `json:"dropped_spans"`
		Spans        []Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /debug/spans JSON: %v", err)
	}
	if body.DroppedSpans != total-64 || len(body.Spans) != 64 {
		t.Fatalf("dropped_spans = %d over %d spans, want %d over 64", body.DroppedSpans, len(body.Spans), total-64)
	}
}
