package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilTracerIsNop(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Name: "x"})
	if tr.Len() != 0 || tr.Events() != nil || tr.Last(5) != nil {
		t.Fatal("nil tracer must be empty")
	}
	h := tr.StartTrace("run")
	if h != nil {
		t.Fatal("nil tracer must hand out the nil trace handle")
	}
	h.Emit(Event{Name: "y"}) // must not panic
}

func TestTracerSequenceAndWindow(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Name: "e", Round: i})
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Round != i {
			t.Fatalf("event %d out of order: seq=%d round=%d", i, e.Seq, e.Round)
		}
		if e.TimeNS == 0 {
			t.Fatal("Emit must stamp wall-clock time when unset")
		}
	}
	last := tr.Last(2)
	if len(last) != 2 || last[0].Round != 3 || last[1].Round != 4 {
		t.Fatalf("Last(2) = %+v", last)
	}
}

// TestTracerWraparound fills the ring past capacity and checks the
// surviving window is the newest events, still chronological.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(16)
	const emitted = 40
	for i := 0; i < emitted; i++ {
		tr.Emit(Event{Name: "e", Round: i, TimeNS: int64(i + 1)})
	}
	if tr.Len() != 16 {
		t.Fatalf("Len = %d, want 16", tr.Len())
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("len = %d, want 16", len(evs))
	}
	for i, e := range evs {
		wantRound := emitted - 16 + i
		if e.Round != wantRound || e.Seq != uint64(wantRound+1) {
			t.Fatalf("event %d: round=%d seq=%d, want round %d", i, e.Round, e.Seq, wantRound)
		}
	}
	// Pre-filled deterministic timestamps must survive untouched.
	if evs[0].TimeNS != int64(emitted-16+1) {
		t.Fatalf("TimeNS = %d", evs[0].TimeNS)
	}
	if over := tr.Last(1000); len(over) != 16 {
		t.Fatalf("Last(1000) len = %d, want 16", len(over))
	}
}

func TestTraceHandleStampsID(t *testing.T) {
	tr := NewTracer(16)
	run := tr.StartTrace("mpr-int")
	run.Emit(Event{Name: "market_round", Round: 1, Price: 0.5})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Trace != "mpr-int" {
		t.Fatalf("trace not stamped: %+v", evs)
	}
}

// TestTracerConcurrentDropAccounting hammers one ring from many writers
// and pins the overflow invariant the /debug/market dropped_events field
// reports on: every emitted event is either still retained in the window
// or counted as dropped — exactly once, even when wraparound and the
// sequence counter are contended. Run under -race this also covers the
// ring's locking discipline.
func TestTracerConcurrentDropAccounting(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
	)
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Emit(Event{Name: "burst", Round: w, Value: float64(i)})
			}
		}(w)
	}
	// Concurrent readers must never observe retained+dropped exceeding
	// what has been emitted (sequence numbers are assigned under the same
	// lock, so Len+Dropped trails seq monotonically).
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
			if got := uint64(tr.Len()) + tr.Dropped(); got > writers*perWriter {
				t.Errorf("retained+dropped = %d mid-run, exceeds %d emitted", got, writers*perWriter)
				return
			}
			tr.Last(8)
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	const total = writers * perWriter
	if got := uint64(tr.Len()) + tr.Dropped(); got != total {
		t.Fatalf("retained(%d) + dropped(%d) = %d, want %d emitted", tr.Len(), tr.Dropped(), got, total)
	}
	if tr.Len() != 64 {
		t.Fatalf("ring len = %d, want full capacity 64", tr.Len())
	}
	// The surviving window is the final slice of the sequence space, in
	// order and gap-free.
	evs := tr.Events()
	for i, e := range evs {
		if want := uint64(total - 64 + i + 1); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}

	// /debug/market?format=json reports the same counter.
	h := NewHandler(HandlerConfig{Tracer: tr})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/market?format=json", nil))
	var body struct {
		DroppedEvents uint64  `json:"dropped_events"`
		Events        []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /debug/market JSON: %v", err)
	}
	if body.DroppedEvents != tr.Dropped() || body.DroppedEvents != total-64 {
		t.Fatalf("dropped_events = %d, want %d", body.DroppedEvents, total-64)
	}
	if len(body.Events) == 0 {
		t.Fatal("debug/market returned no events")
	}
}
