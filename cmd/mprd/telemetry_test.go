package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpr/internal/core"
	"mpr/internal/telemetry/flight"
	"mpr/internal/telemetry/tsdb"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObsShutdownDrains is the shutdown-drain contract: on
// cancellation the sampler takes one final sample, and only then is the
// exit flight bundle cut — exactly once, carrying that sample and the
// span ring.
func TestObsShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	clock := tsdb.NewFakeClock(time.Unix(1000, 0))
	o, err := newObs(obsConfig{
		FlightDir: dir,
		Evictions: func() int64 { return 3 },
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.startSampler()
	// Startup sample lands without any tick.
	waitFor(t, "startup sample", func() bool { return o.evictions.Total() >= 1 })
	market := o.tracer.StartSpan("market", nil)
	market.SetAttr("rounds", "7")
	market.End()
	clock.Advance(3 * time.Second)
	waitFor(t, "ticked samples", func() bool { return o.evictions.Total() >= 4 })

	if err := o.shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Drain adds exactly one final sample.
	if got := o.evictions.Total(); got != 5 {
		t.Fatalf("samples after drain = %d, want 5", got)
	}
	exits := bundlesIn(t, dir, "exit")
	if len(exits) != 1 {
		t.Fatalf("exit bundles = %v, want exactly 1", exits)
	}
	b, err := flight.ReadBundleFile(exits[0])
	if err != nil {
		t.Fatal(err)
	}
	var points []tsdb.Point
	for _, sd := range b.Series {
		if sd.Name == seriesEvictions {
			points = sd.Points
		}
	}
	// The startup sample saw all 3 evictions; later deltas, the final
	// drain sample's included, are 0.
	if len(points) != 5 || points[0].V != 3 || points[4].V != 0 {
		t.Fatalf("exit bundle's %s = %+v, want 5 samples from 3 down to 0", seriesEvictions, points)
	}
	found := false
	for _, s := range b.Spans {
		found = found || (s.Name == "market" && s.Attr("rounds") == "7")
	}
	if !found {
		t.Fatalf("exit bundle lost the span ring: %+v", b.Spans)
	}
}

func TestObsHealthAndHandler(t *testing.T) {
	clock := tsdb.NewFakeClock(time.Unix(5000, 0))
	o, err := newObs(obsConfig{
		AgentCount: func() int { return 2 },
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.startSampler()
	defer o.shutdown()
	waitFor(t, "startup sample", func() bool { return o.evictions.Total() >= 1 })
	clock.Advance(10 * time.Second)
	waitFor(t, "ticks", func() bool { return o.evictions.Total() >= 11 })

	h := o.health()
	if h.Status != "ok" || h.AgentsConnected != 2 {
		t.Fatalf("health = %+v", h)
	}
	if h.UptimeSeconds != 10 {
		t.Fatalf("uptime = %v, want 10", h.UptimeSeconds)
	}
	if h.LastSampleAgeSeconds < 0 || h.LastSampleAgeSeconds > 10 {
		t.Fatalf("sample age = %v", h.LastSampleAgeSeconds)
	}

	// The handler serves the full surface.
	for _, path := range []string{"/metrics", "/debug/spans", "/debug/series", "/healthz", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		o.handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
	}
}

// logLines collects the obs log from the sampler goroutine.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(f string, a ...interface{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(f, a...))
}

func (l *logLines) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// waitSampled waits until the sampler has finished its tick at now, the
// rule evaluation included.
func waitSampled(t *testing.T, o *obs, now time.Time) {
	t.Helper()
	waitFor(t, "sample", func() bool { return o.sampler.LastSampleAge(now) == 0 })
}

// tick advances the fake clock one sample interval and waits for that
// tick to finish.
func tick(t *testing.T, o *obs, clock *tsdb.FakeClock) {
	t.Helper()
	clock.Advance(sampleInterval)
	waitSampled(t, o, clock.Now())
}

func alertsFired(o *obs, rule string) int64 {
	return o.reg.Snapshot().Counters[`mpr_mgr_alerts_total{rule="`+rule+`"}`]
}

// TestObsRecordMarketFiresAlerts checks the live SLO evaluation: an
// unmet reduction target fires UnmetReduction and a long market fires
// MarketRoundsRegression on the next sampler tick, both counted in the
// registry.
func TestObsRecordMarketFiresAlerts(t *testing.T) {
	var log logLines
	clock := tsdb.NewFakeClock(time.Unix(1000, 0))
	o, err := newObs(obsConfig{Clock: clock, Logf: log.logf})
	if err != nil {
		t.Fatal(err)
	}
	o.startSampler()
	defer o.shutdown()
	waitSampled(t, o, clock.Now())

	// A healthy market: no firings.
	o.recordMarket(1000, &core.ClearingResult{Rounds: 5, Price: 0.4, SuppliedW: 1000})
	tick(t, o, clock)
	if n := alertsFired(o, "UnmetReduction"); n != 0 {
		t.Fatalf("healthy market fired %d alerts", n)
	}
	// Unmet target + excessive rounds: both rules fire.
	o.recordMarket(2000, &core.ClearingResult{Rounds: 45, Price: 0.9, SuppliedW: 1500})
	tick(t, o, clock)
	if n := alertsFired(o, "UnmetReduction"); n != 1 {
		t.Fatalf("UnmetReduction fired %d times, want 1", n)
	}
	if n := alertsFired(o, "MarketRoundsRegression"); n != 1 {
		t.Fatalf("MarketRoundsRegression fired %d times, want 1", n)
	}
	if logged := log.get(); len(logged) != 2 {
		t.Fatalf("logged %q, want 2 firings", logged)
	}
}

// TestObsAlertsSeeHistory: the live rules evaluate every sample since
// startup, not only the current second. One eviction in 11 samples (9 %)
// is below EvictionBurst's "> 30 % of the trailing 10" and must not fire;
// four in the trailing 10 must, and that firing is counted and logged
// once however many markets and ticks re-evaluate it.
func TestObsAlertsSeeHistory(t *testing.T) {
	var evictions atomic.Int64
	var log logLines
	clock := tsdb.NewFakeClock(time.Unix(3000, 0))
	o, err := newObs(obsConfig{
		Evictions: evictions.Load,
		Clock:     clock,
		Logf:      log.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.startSampler()
	defer o.shutdown()
	waitSampled(t, o, clock.Now())

	evictTick := func(evict bool) {
		t.Helper()
		if evict {
			evictions.Add(1)
		}
		tick(t, o, clock)
	}
	for i := 0; i < 9; i++ {
		evictTick(false)
	}
	evictTick(true) // the 11th sample holds the only eviction
	if n := alertsFired(o, "EvictionBurst"); n != 0 {
		t.Fatalf("1 eviction in 11 samples fired EvictionBurst %d times", n)
	}

	for i := 0; i < 3; i++ {
		evictTick(true) // 4 of the trailing 10 samples evict
	}
	healthy := &core.ClearingResult{Rounds: 5, Price: 0.4, SuppliedW: 1000}
	for i := 0; i < 2; i++ {
		o.recordMarket(1000, healthy)
		evictTick(false)
	}
	if n := alertsFired(o, "EvictionBurst"); n != 1 {
		t.Fatalf("4 evictions in the trailing 10 fired EvictionBurst %d times, want 1", n)
	}
	if logged := log.get(); len(logged) != 1 || !strings.Contains(logged[0], "ALERT EvictionBurst") {
		t.Fatalf("logged %q, want one EvictionBurst line", logged)
	}
}
