package tsdb

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestTickerSamplerDrainAndFlush is the shutdown contract: cancelling
// the context produces exactly one final sample followed by exactly one
// flush, and Run returns the flush error.
func TestTickerSamplerDrainAndFlush(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	var samples, flushes atomic.Int64
	flushErr := errors.New("sink failed")
	s := &TickerSampler{
		Interval: time.Second,
		Clock:    clock,
		Sample:   func(time.Time) { samples.Add(1) },
		Flush:    func() error { flushes.Add(1); return flushErr },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	// Wait for the immediate startup sample, then advance 3 ticks.
	waitFor(t, func() bool { return samples.Load() == 1 })
	clock.Advance(3 * time.Second)
	waitFor(t, func() bool { return samples.Load() == 4 })
	if flushes.Load() != 0 {
		t.Fatal("flushed before shutdown")
	}

	cancel()
	if err := <-done; err != flushErr {
		t.Fatalf("Run returned %v, want the flush error", err)
	}
	if got := samples.Load(); got != 5 {
		t.Fatalf("samples = %d, want 5 (start + 3 ticks + drain)", got)
	}
	if flushes.Load() != 1 {
		t.Fatalf("flushes = %d, want exactly 1", flushes.Load())
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
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	waitFor(t, func() bool { return s.LastSampleAge(clock.Now()) == 0 })
	clock.Advance(1500 * time.Millisecond) // tick at +1s, now +1.5s
	waitFor(t, func() bool { return s.LastSampleAge(clock.Now()) == 500*time.Millisecond })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
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
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	waitFor(t, func() bool { return int(evictions.Total()) == 1 })
	clock.Advance(5 * time.Second)
	waitFor(t, func() bool { return int(evictions.Total()) == 6 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
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
