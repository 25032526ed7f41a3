package tsdb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts wall time so daemon sampling loops can be driven by a
// fake clock in tests. The zero-config real clock is the default.
type Clock interface {
	Now() time.Time
	NewTicker(d time.Duration) Ticker
}

// Ticker is the Clock-side of time.Ticker.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// realClock adapts package time.
type realClock struct{}

func (realClock) Now() time.Time                   { return time.Now() }
func (realClock) NewTicker(d time.Duration) Ticker { return &realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (t *realTicker) C() <-chan time.Time { return t.t.C }
func (t *realTicker) Stop()               { t.t.Stop() }

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

// TickerSampler drives a wall-clock sampling loop: Sample fires every
// Interval, and when the context is cancelled the loop drains — one
// final Sample — before returning. This is the shutdown contract mprd
// relies on: SIGINT/SIGTERM still land a last sample in the store before
// the exit flight bundle is cut.
type TickerSampler struct {
	// Interval between samples (default 1 s when non-positive).
	Interval time.Duration
	// Sample records one observation round (e.g. appending gauges into
	// store series). Called from the loop goroutine only.
	Sample func(now time.Time)
	// Clock defaults to the real wall clock; tests inject a FakeClock.
	Clock Clock

	lastNS atomic.Int64
}

// Run samples until ctx is cancelled, then drains. It blocks; callers
// run it in a goroutine and wait on its return for shutdown.
func (s *TickerSampler) Run(ctx context.Context) {
	clock := s.Clock
	if clock == nil {
		clock = RealClock()
	}
	interval := s.Interval
	if interval <= 0 {
		interval = time.Second
	}
	// Ticker first, then the startup sample: observers that see the
	// first sample (e.g. tests driving a fake clock) know the ticker is
	// already registered and no tick can be lost.
	tick := clock.NewTicker(interval)
	defer tick.Stop()
	s.sample(clock.Now())
	for {
		select {
		case now := <-tick.C():
			s.sample(now)
		case <-ctx.Done():
			// Drain: one final sample so the window ends at shutdown time.
			s.sample(clock.Now())
			return
		}
	}
}

func (s *TickerSampler) sample(now time.Time) {
	if s.Sample != nil {
		s.Sample(now)
	}
	s.lastNS.Store(now.UnixNano())
}

// LastSampleAge returns how long ago the last sample fired (relative to
// now), or a negative duration when no sample has fired yet — the
// /healthz freshness signal.
func (s *TickerSampler) LastSampleAge(now time.Time) time.Duration {
	last := s.lastNS.Load()
	if last == 0 {
		return -1
	}
	return now.Sub(time.Unix(0, last))
}

// FakeClock is a manually advanced Clock for tests: Advance moves time
// forward and delivers the ticks that elapsed to every ticker.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*fakeTicker
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTicker registers a ticker firing every d of fake time.
func (c *FakeClock) NewTicker(d time.Duration) Ticker {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTicker{period: d, next: c.now.Add(d), ch: make(chan time.Time, 64)}
	c.tickers = append(c.tickers, t)
	return t
}

// Advance moves the clock forward by d, delivering every tick that
// elapses (in order) to the registered tickers. Delivery is
// non-blocking: a reader that has fallen behind loses ticks, like a real
// time.Ticker.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for _, t := range c.tickers {
		if t.stopped.Load() {
			continue
		}
		for !t.next.After(c.now) {
			select {
			case t.ch <- t.next:
			default:
			}
			t.next = t.next.Add(t.period)
		}
	}
}

type fakeTicker struct {
	period  time.Duration
	next    time.Time
	ch      chan time.Time
	stopped atomic.Bool
}

func (t *fakeTicker) C() <-chan time.Time { return t.ch }
func (t *fakeTicker) Stop()               { t.stopped.Store(true) }
