package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"mpr/internal/core"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/alerts"
	"mpr/internal/telemetry/flight"
	"mpr/internal/telemetry/tsdb"
)

// Series the daemon records (wall-clock Unix-second timestamps): exactly
// the ones alerts.ManagerRules evaluates.
const (
	seriesMarketRounds = "mpr_mgr_market_rounds"
	seriesMarketUnmet  = "mpr_mgr_market_unmet_w"
	// seriesEvictions records slow-agent evictions (deadline-budget +
	// write-stall) per sampling interval — deltas, not the cumulative
	// count, so the EvictionBurst manager rule can tell a burst from an
	// old total.
	seriesEvictions = "mpr_mgr_evictions"
)

// sampleInterval is the wall-clock sampling period.
const sampleInterval = time.Second

// obsConfig parameterizes the daemon's observability runtime.
type obsConfig struct {
	// AgentCount reports the number of connected agents (for /healthz).
	AgentCount func() int
	// Evictions reports the cumulative slow-agent evictions.
	Evictions func() int64
	// FlightDir, when set, enables the black-box flight recorder: the
	// runtime-health sampler joins the tick, alerts.RuntimeRules join the
	// live scorecard, fresh firings trigger bundle dumps (per-rule
	// FlightCooldown), and shutdown parks a final exit-reason bundle.
	FlightDir string
	// FlightCooldown is the per-rule dump suppression window
	// (default 60s).
	FlightCooldown time.Duration
	// ConfigEcho is the flag echo stored in every flight bundle.
	ConfigEcho map[string]string
	// Logf receives alert firings and flight-dump diagnostics.
	Logf func(format string, args ...interface{})
	// Clock drives the sampler (tests inject tsdb.FakeClock).
	Clock tsdb.Clock
}

// obs is mprd's observability runtime: registry, event tracer, series
// store, and a wall-clock ticker sampler whose every tick (the shutdown
// drain's included) evaluates the live SLO scorecard; shutdown cuts the
// exit bundle exactly once.
type obs struct {
	cfg    obsConfig
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	store  *tsdb.Store

	evictions   *tsdb.Series
	alertsFired *telemetry.CounterFamily
	slo         alerts.Scorecard // touched only on the sampler goroutine
	flight      *flight.Recorder // nil when -flight is off (nil-safe)

	sampler   *tsdb.TickerSampler
	start     time.Time
	lastEvict int64

	cancel context.CancelFunc
	done   chan struct{}

	// shutdown is idempotent: the signal path and the deferred drain in
	// run() may both reach it, and only one may drain the sampler and cut
	// the exit bundle.
	shutdownOnce sync.Once
	shutdownErr  error
}

// newObs builds the runtime without starting its sampler: the first
// sample already calls AgentCount and Evictions, so whatever they read
// must exist before startSampler. Call shutdown to drain it.
func newObs(c obsConfig) (*obs, error) {
	if c.Clock == nil {
		c.Clock = tsdb.RealClock()
	}
	if c.AgentCount == nil {
		c.AgentCount = func() int { return 0 }
	}
	if c.Evictions == nil {
		c.Evictions = func() int64 { return 0 }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	o := &obs{
		cfg:    c,
		reg:    telemetry.NewRegistry(),
		tracer: telemetry.NewTracer(1024),
		store:  tsdb.New(0),
		start:  c.Clock.Now(),
		slo:    alerts.Scorecard{Rules: alerts.ManagerRules()},
	}
	o.evictions = o.store.Series(seriesEvictions)
	o.alertsFired = o.reg.CounterFamily("mpr_mgr_alerts_total",
		"SLO alert firings by rule.", "rule")
	if c.FlightDir != "" {
		rec, err := flight.New(flight.Config{
			Registry:   o.reg,
			Tracer:     o.tracer,
			Store:      o.store,
			Dir:        c.FlightDir,
			Cooldown:   c.FlightCooldown,
			ConfigEcho: c.ConfigEcho,
			Logf:       c.Logf,
		})
		if err != nil {
			return nil, err
		}
		o.flight = rec
		// With the runtime sampler feeding mpr_rt_* series, the process-
		// health rules have data to evaluate; without -flight they would
		// be inert anyway (the series never exist).
		o.slo.Rules = append(o.slo.Rules, alerts.RuntimeRules()...)
	}
	o.sampler = &tsdb.TickerSampler{
		Interval: sampleInterval,
		Clock:    c.Clock,
		Sample:   o.sample,
	}
	return o, nil
}

// startSampler launches the wall-clock sampler; its first sample lands
// at once.
func (o *obs) startSampler() {
	ctx, cancel := context.WithCancel(context.Background())
	o.cancel = cancel
	o.done = make(chan struct{})
	go func() {
		o.sampler.Run(ctx)
		close(o.done)
	}()
}

// sample records one wall-clock observation and evaluates the live SLO
// rules over every retained sample, logging and counting each firing
// once. Fresh firings go to the flight recorder, which dumps one bundle
// per rule and series per cooldown.
func (o *obs) sample(now time.Time) {
	o.flight.SampleRuntime(now)
	cur := o.cfg.Evictions()
	o.evictions.Append(now.Unix(), float64(cur-o.lastEvict))
	o.lastEvict = cur

	firings := o.slo.Eval(o.store)
	for _, f := range firings {
		o.alertsFired.With(f.Rule).Inc()
		o.cfg.Logf("%s — %s", f, f.Help)
	}
	if path, err := o.flight.OnFirings(now, firings); err != nil {
		o.cfg.Logf("flight dump: %v", err)
	} else if path != "" {
		o.cfg.Logf("alert flight bundle written to %s", path)
	}
}

// shutdown stops the sampler, waits for its final sample, dumps the
// flight recorder's exit bundle, and returns the dump error. A runtime
// whose sampler never started only dumps. Idempotent: repeated calls
// (signal path racing the deferred drain) return the first call's error
// without re-draining.
func (o *obs) shutdown() error {
	o.shutdownOnce.Do(func() {
		if o.done != nil {
			o.cancel()
			<-o.done
		}
		// The exit bundle is cut after the drain so it carries the final
		// sample; Dump no-ops when -flight is off.
		_, o.shutdownErr = o.flight.Dump(o.cfg.Clock.Now(), flight.ReasonExit, nil)
	})
	return o.shutdownErr
}

// dumpOnSignal writes a signal-reason bundle — mprd's SIGQUIT handler,
// the "open the black box without landing the plane" trigger. No-op
// when -flight is off.
func (o *obs) dumpOnSignal() {
	if path, err := o.flight.Dump(o.cfg.Clock.Now(), flight.ReasonSignal, nil); err == nil && path != "" {
		o.cfg.Logf("SIGQUIT: flight bundle written to %s", path)
	}
}

// health is the /healthz snapshot.
func (o *obs) health() telemetry.Health {
	now := o.cfg.Clock.Now()
	return telemetry.Health{
		Status:               "ok",
		UptimeSeconds:        now.Sub(o.start).Seconds(),
		AgentsConnected:      o.cfg.AgentCount(),
		LastSampleAgeSeconds: o.sampler.LastSampleAge(now).Seconds(),
	}
}

// handler is the daemon's full HTTP surface: /metrics, /debug/spans,
// /debug/series, /debug/flight, /healthz, and
// /debug/pprof. The flight endpoints are mounted even without -flight —
// a nil recorder serves enabled=false and refuses dumps — so probes
// never depend on configuration.
func (o *obs) handler() http.Handler {
	return telemetry.NewHandler(telemetry.HandlerConfig{
		Registry: o.reg,
		Tracer:   o.tracer,
		Series:   tsdb.Handler(o.store),
		Flight:   o.flight.Handler(),
		Health:   o.health,
	})
}

// recordMarket appends a finished market to the two series the manager
// rules read; the next sampler tick evaluates them.
func (o *obs) recordMarket(targetW float64, r *core.ClearingResult) {
	t := o.cfg.Clock.Now().Unix()
	o.store.Series(seriesMarketRounds).Append(t, float64(r.Rounds))
	o.store.Series(seriesMarketUnmet).Append(t, max(targetW-r.SuppliedW, 0))
}
