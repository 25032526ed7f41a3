package tsdb

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestTickerSamplerDrain is the shutdown contract: cancelling the
// context produces exactly one final sample before Run returns.
func TestTickerSamplerDrain(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	var samples atomic.Int64
	s := &TickerSampler{
		Interval: time.Second,
		Clock:    clock,
		Sample:   func(time.Time) { samples.Add(1) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()

	// Wait for the immediate startup sample, then advance 3 ticks.
	waitFor(t, func() bool { return samples.Load() == 1 })
	clock.Advance(3 * time.Second)
	waitFor(t, func() bool { return samples.Load() == 4 })

	cancel()
	<-done
	if got := samples.Load(); got != 5 {
		t.Fatalf("samples = %d, want 5 (start + 3 ticks + drain)", got)
	}
}

// TestTickerSamplerLastSampleAge checks the /healthz freshness signal.
func TestTickerSamplerLastSampleAge(t *testing.T) {
	clock := NewFakeClock(time.Unix(2000, 0))
	s := &TickerSampler{Interval: time.Second, Clock: clock}
	if age := s.LastSampleAge(clock.Now()); age >= 0 {
		t.Fatalf("age before any sample = %v, want negative", age)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	waitFor(t, func() bool { return s.LastSampleAge(clock.Now()) == 0 })
	clock.Advance(1500 * time.Millisecond) // tick at +1s, now +1.5s
	waitFor(t, func() bool { return s.LastSampleAge(clock.Now()) == 500*time.Millisecond })
	cancel()
	<-done
	if age := s.LastSampleAge(clock.Now()); age != 0 {
		t.Fatalf("age after drain = %v, want 0", age)
	}
}

// TestTickerSamplerRecordsIntoStore wires the sampler to a store the way
// mprd does and checks the series advances with fake time.
func TestTickerSamplerRecordsIntoStore(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	st := New(64)
	evictions := st.Series("mpr_mgr_evictions")
	s := &TickerSampler{
		Interval: time.Second,
		Clock:    clock,
		Sample:   func(now time.Time) { evictions.Append(now.UnixNano(), 0) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	waitFor(t, func() bool { return int(evictions.Total()) == 1 })
	clock.Advance(5 * time.Second)
	waitFor(t, func() bool { return int(evictions.Total()) == 6 })
	cancel()
	<-done
	if int(evictions.Total()) != 7 { // start + 5 ticks + drain
		t.Fatalf("samples = %d, want 7", int(evictions.Total()))
	}
}

// waitFor polls cond with a real-time deadline — the fake clock delivers
// ticks asynchronously to the sampler goroutine.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
