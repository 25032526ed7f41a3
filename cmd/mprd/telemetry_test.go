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
	"mpr/internal/telemetry"
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

// TestObsShutdownDrainsAndFlushes is the shutdown-drain contract: on
// cancellation the sampler takes one final sample, and only then is the
// exit flight bundle cut — exactly once, carrying that sample and the
// trace ring.
func TestObsShutdownDrainsAndFlushes(t *testing.T) {
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
	o.tracer.Emit(telemetry.Event{Name: "market_clear", Round: 7})
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
	for _, e := range b.Events {
		found = found || (e.Name == "market_clear" && e.Round == 7)
	}
	if !found {
		t.Fatalf("exit bundle lost the trace ring: %+v", b.Events)
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
	for _, path := range []string{"/metrics", "/debug/market", "/debug/spans", "/debug/series", "/healthz", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		o.handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
	}
}

// TestObsRecordMarketFiresAlerts checks the live SLO evaluation: an
// unmet reduction target fires UnmetReduction and a long market fires
// MarketRoundsRegression, both counted in the registry.
func TestObsRecordMarketFiresAlerts(t *testing.T) {
	var logged []string
	o, err := newObs(obsConfig{
		Clock: tsdb.NewFakeClock(time.Unix(0, 0)),
		Logf:  func(f string, a ...interface{}) { logged = append(logged, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.shutdown()

	// A healthy market: no firings.
	o.recordMarket(1000, &core.ClearingResult{Rounds: 5, Price: 0.4, SuppliedW: 1000})
	if n := o.reg.Snapshot().Counters[`mpr_mgr_alerts_total{rule="UnmetReduction"}`]; n != 0 {
		t.Fatalf("healthy market fired %d alerts", n)
	}
	// Unmet target + excessive rounds: both rules fire.
	o.recordMarket(2000, &core.ClearingResult{Rounds: 45, Price: 0.9, SuppliedW: 1500})
	snap := o.reg.Snapshot()
	if n := snap.Counters[`mpr_mgr_alerts_total{rule="UnmetReduction"}`]; n != 1 {
		t.Fatalf("UnmetReduction fired %d times, want 1", n)
	}
	if n := snap.Counters[`mpr_mgr_alerts_total{rule="MarketRoundsRegression"}`]; n != 1 {
		t.Fatalf("MarketRoundsRegression fired %d times, want 1", n)
	}
	if len(logged) != 2 {
		t.Fatalf("logged %d firings, want 2", len(logged))
	}
}

// TestObsAlertsSeeHistory: the live rules evaluate every sample since
// startup, not only the current second. One eviction in 11 samples (9 %)
// is below EvictionBurst's "> 30 % of the trailing 10" and must not fire;
// four in the trailing 10 must, and that firing is counted and logged
// once however many markets re-evaluate it.
func TestObsAlertsSeeHistory(t *testing.T) {
	var evictions atomic.Int64
	var (
		mu     sync.Mutex
		logged []string
	)
	clock := tsdb.NewFakeClock(time.Unix(3000, 0))
	o, err := newObs(obsConfig{
		Evictions: evictions.Load,
		Clock:     clock,
		Logf: func(f string, a ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(f, a...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.startSampler()
	defer o.shutdown()

	evictSeries := o.evictions
	waitFor(t, "startup sample", func() bool { return evictSeries.Total() >= 1 })
	tick := func(evict bool) {
		t.Helper()
		if evict {
			evictions.Add(1)
		}
		n := evictSeries.Total()
		clock.Advance(time.Second)
		waitFor(t, "sample", func() bool { return evictSeries.Total() > n })
	}
	fired := func() int64 {
		return o.reg.Snapshot().Counters[`mpr_mgr_alerts_total{rule="EvictionBurst"}`]
	}
	healthy := &core.ClearingResult{Rounds: 5, Price: 0.4, SuppliedW: 1000}

	for i := 0; i < 9; i++ {
		tick(false)
	}
	tick(true) // the 11th sample holds the only eviction
	o.recordMarket(1000, healthy)
	if n := fired(); n != 0 {
		t.Fatalf("1 eviction in 11 samples fired EvictionBurst %d times", n)
	}

	for i := 0; i < 3; i++ {
		tick(true) // 4 of the trailing 10 samples evict
	}
	o.recordMarket(1000, healthy)
	o.recordMarket(1000, healthy)
	if n := fired(); n != 1 {
		t.Fatalf("4 evictions in the trailing 10 fired EvictionBurst %d times, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "ALERT EvictionBurst") {
		t.Fatalf("logged %q, want one EvictionBurst line", logged)
	}
}
