package main

import (
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/core"
	"mpr/internal/telemetry/flight"
	"mpr/internal/telemetry/tsdb"
)

// bidFunc adapts a function to core.Bidder for test fleets.
type bidFunc func(price float64) core.Bid

func (f bidFunc) RespondBid(price float64) core.Bid { return f(price) }

func bundlesIn(t *testing.T, dir, reason string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "flight-*-"+reason+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestObsShutdownIdempotent is the double-flush regression test for the
// exit paths: the signal path and the deferred drain may both call
// shutdown, and the second call must return immediately with the first
// call's result instead of deadlocking on the drained sampler — with the
// exit flight bundle cut exactly once.
func TestObsShutdownIdempotent(t *testing.T) {
	dir := t.TempDir()
	clock := tsdb.NewFakeClock(time.Unix(1000, 0))
	o, err := newObs(obsConfig{
		FlightDir:  dir,
		AgentCount: func() int { return 1 },
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.startSampler()
	waitFor(t, "startup sample", func() bool { return o.evictions.Total() >= 1 })

	// Two exit paths race shutdown; both must return the same result.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = o.shutdown()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent shutdown deadlocked")
	}
	if errs[0] != errs[1] {
		t.Fatalf("shutdown errors diverge: %v vs %v", errs[0], errs[1])
	}
	// A third, sequential call is equally safe.
	if err := o.shutdown(); err != errs[0] {
		t.Fatalf("repeated shutdown = %v, want %v", err, errs[0])
	}
	// The drain ran once: startup sample + one final sample, no more.
	if got := o.evictions.Total(); got != 2 {
		t.Fatalf("samples after double shutdown = %d, want 2 (drain ran twice?)", got)
	}
	// Exactly one exit bundle, schema-valid.
	exits := bundlesIn(t, dir, "exit")
	if len(exits) != 1 {
		t.Fatalf("exit bundles = %v, want exactly 1", exits)
	}
	if _, err := flight.ReadBundleFile(exits[0]); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionBurstDumpsOneBundle is the flight recorder's alert path end
// to end: a real manager evicts deliberately stalled agents out of a live
// fleet, one a market, each eviction lands in the mpr_mgr_evictions
// series on the next sampler tick, the fourth such tick fires the
// EvictionBurst rule (4 of its 10-sample window; the three before are no
// burn), and the flight recorder writes exactly one schema-valid
// mprflight/v2 bundle — later ticks and markets re-evaluate the same
// violation without another — containing the triggering firing, a
// goroutine profile, the eviction trace event, and the mpr_rt_* window.
func TestEvictionBurstDumpsOneBundle(t *testing.T) {
	dir := t.TempDir()
	clock := tsdb.NewFakeClock(time.Unix(2000, 0))
	// The sampler polls these closures from its first sample on, so it
	// starts only once the manager below exists — as in mprd's run.
	var m *agentproto.Manager
	o, err := newObs(obsConfig{
		FlightDir:      dir,
		FlightCooldown: time.Minute,
		AgentCount:     func() int { return m.AgentCount() },
		Evictions:      func() int64 { return m.Evictions() },
		Clock:          clock,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.shutdown()

	m, err = agentproto.NewManager("127.0.0.1:0", agentproto.ManagerConfig{
		RoundTimeout:     150 * time.Millisecond,
		EvictAfterMisses: 1,
		Telemetry:        o.reg,
		Tracer:           o.tracer,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	o.startSampler()

	dial := func(job string, strat core.Bidder) *agentproto.Agent {
		t.Helper()
		mgrEnd, agentEnd := net.Pipe()
		if err := m.ServeConn(mgrEnd); err != nil {
			t.Fatal(err)
		}
		a, err := agentproto.DialConn(agentEnd, agentproto.AgentConfig{
			JobID: job, Cores: 64, WattsPerCore: 125, MaxFrac: 0.4,
			Strategy: strat,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		return a
	}
	for _, job := range []string{"good-0", "good-1", "good-2"} {
		dial(job, bidFunc(func(price float64) core.Bid {
			return core.Bid{Delta: 25.6, B: 10}
		}))
	}
	// A stalled agent reads prices but never answers: its RespondBid
	// blocks past every round deadline, burning the one-miss budget.
	stall := make(chan struct{})
	t.Cleanup(func() { close(stall) })
	var out *agentproto.MarketOutcome
	for k := 1; k <= 4; k++ {
		dial(fmt.Sprintf("stall-%d", k), bidFunc(func(price float64) core.Bid {
			<-stall
			return core.Bid{}
		}))
		waitFor(t, "fleet registered", func() bool { return m.AgentCount() == 4 })
		if out, err = m.RunMarket(5000); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "eviction", func() bool { return m.Evictions() == int64(k) })
		// One sampler tick captures the eviction delta and evaluates the
		// rules over every sample since startup.
		o.recordMarket(5000, out.Result)
		tick(t, o, clock)
		if got := bundlesIn(t, dir, "alert"); k < 4 && len(got) != 0 {
			t.Fatalf("alert bundles after %d evicting ticks = %v, want none yet", k, got)
		}
	}

	alertBundles := bundlesIn(t, dir, "alert")
	if len(alertBundles) != 1 {
		t.Fatalf("alert bundles after first firing = %v, want exactly 1", alertBundles)
	}
	// The rule keeps firing on later ticks and markets: still one bundle.
	o.recordMarket(5000, out.Result)
	tick(t, o, clock)
	o.recordMarket(5000, out.Result)
	tick(t, o, clock)
	if got := bundlesIn(t, dir, "alert"); len(got) != 1 {
		t.Fatalf("alert bundles after re-firings = %v, want still exactly 1", got)
	}

	b, err := flight.ReadBundleFile(alertBundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger == nil || b.Trigger.Rule != "EvictionBurst" {
		t.Fatalf("bundle trigger = %+v, want EvictionBurst", b.Trigger)
	}
	if !strings.Contains(b.GoroutineProfile, "goroutine profile:") {
		t.Error("bundle is missing a goroutine profile")
	}
	foundEvict := false
	for _, e := range b.Events {
		if e.Name == "eviction" && strings.HasPrefix(e.Label, "stall-") {
			foundEvict = true
		}
	}
	if !foundEvict {
		t.Error("bundle events do not include a stalled agent's eviction")
	}
	for _, name := range []string{flight.SeriesGoroutines, flight.SeriesHeapInuse, seriesEvictions} {
		found := false
		for _, sd := range b.Series {
			if sd.Name == name && len(sd.Points) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("bundle series window missing %s", name)
		}
	}

	// The HTTP surface reflects the dump and serves the runtime snapshot.
	rec := httptest.NewRecorder()
	o.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"dumps": 1`) ||
		!strings.Contains(rec.Body.String(), `"goroutines"`) {
		t.Errorf("/debug/flight = %d %s", rec.Code, rec.Body.String())
	}
}

// TestIdleDaemonFiresEvictionBurst: a daemon that runs no market still
// evaluates its rules on every sampler tick, so evictions on 4 of the
// trailing 10 ticks fire EvictionBurst — counted and logged once — and
// the flight recorder writes exactly one alert bundle.
func TestIdleDaemonFiresEvictionBurst(t *testing.T) {
	dir := t.TempDir()
	var evictions atomic.Int64
	var log logLines
	clock := tsdb.NewFakeClock(time.Unix(4000, 0))
	o, err := newObs(obsConfig{
		FlightDir: dir,
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

	// Ten quiet ticks, so a lone eviction is a small share of the window.
	for i := 0; i < 20; i++ {
		if i >= 10 && i%3 == 1 {
			evictions.Add(1) // ticks 11, 14, 17 and 20 evict
		}
		tick(t, o, clock)
	}
	if n := alertsFired(o, "EvictionBurst"); n != 1 {
		t.Fatalf("EvictionBurst fired %d times, want 1", n)
	}
	var burst []string
	for _, line := range log.get() {
		if strings.Contains(line, "ALERT EvictionBurst") {
			burst = append(burst, line)
		}
	}
	if len(burst) != 1 {
		t.Fatalf("logged %q, want one EvictionBurst line", log.get())
	}
	bundles := bundlesIn(t, dir, "alert")
	if len(bundles) != 1 {
		t.Fatalf("alert bundles = %v, want exactly 1", bundles)
	}
	b, err := flight.ReadBundleFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger == nil || b.Trigger.Rule != "EvictionBurst" || b.Trigger.Samples != 4 {
		t.Fatalf("bundle trigger = %+v, want EvictionBurst over 4 samples", b.Trigger)
	}
}
