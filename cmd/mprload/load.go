package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/core"
	"mpr/internal/runner"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/alerts"
	"mpr/internal/telemetry/flight"
	"mpr/internal/telemetry/hdr"
	"mpr/internal/telemetry/tsdb"
)

// Series the harness samples (wall-clock Unix-second timestamps). The
// rtt quantile series are what alerts.LoadRules watch.
const (
	seriesRTTP50     = "mpr_load_rtt_p50_seconds"
	seriesRTTP99     = "mpr_load_rtt_p99_seconds"
	seriesRTTP999    = "mpr_load_rtt_p999_seconds"
	seriesClearPrice = "mpr_load_clear_price"
	seriesAgentsFrac = "mpr_load_agents_connected_frac"
)

// metricRoundTrip is the shared agent-observed round-turnaround HDR
// histogram every synthetic agent records into.
const metricRoundTrip = "mpr_load_round_trip_seconds"

const (
	// targetFrac sizes the emergency target as a fraction of the fleet's
	// maximum reduction in watts.
	targetFrac = 0.25
	// sampleInterval is the series sampling period.
	sampleInterval = 250 * time.Millisecond
	// roundTimeout is the selfhost manager's per-round bid timeout.
	roundTimeout = 2 * time.Second
)

// loadConfig is the resolved run configuration.
type loadConfig struct {
	Agents   int
	Connect  string // empty = selfhost an in-process manager over net.Pipe
	Mode     string // "open" (markets on a fixed cadence) or "closed" (back-to-back)
	Duration time.Duration
	Interval time.Duration // open-loop market period
	Dist     string        // reluctance distribution: uniform | lognormal | bimodal
	Seed     int64
	Workers  int     // dial fan-out pool (0 = GOMAXPROCS)
	Jitter   float64 // per-round relative bid perturbation, keeps prices moving
	Wire     string  // agent wire: "json" (lines) or "binary" (length-prefixed frames)
	Shards   int     // selfhost manager connection shards (0 = default)
	Logf     func(format string, args ...interface{})
}

func (c *loadConfig) normalize() error {
	if c.Agents < 1 {
		return fmt.Errorf("mprload: -agents must be ≥ 1")
	}
	switch c.Mode {
	case "open", "closed":
	default:
		return fmt.Errorf("mprload: -mode must be open or closed")
	}
	switch c.Dist {
	case "uniform", "lognormal", "bimodal":
	default:
		return fmt.Errorf("mprload: -dist must be uniform, lognormal, or bimodal")
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Wire == "" {
		c.Wire = agentproto.WireJSON
	}
	switch c.Wire {
	case agentproto.WireJSON, agentproto.WireBinary:
	default:
		return fmt.Errorf("mprload: -wire must be json or binary")
	}
	if c.Shards < 0 {
		return fmt.Errorf("mprload: -shards must be ≥ 0")
	}
	if !(c.Jitter >= 0 && c.Jitter <= 1) { // NaN fails too
		return fmt.Errorf("mprload: -jitter must be in [0,1]")
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return nil
}

// loadBidder is the synthetic agent strategy: a supply-function bid with
// per-agent reluctance drawn from the configured distribution, plus a
// small per-round jitter so consecutive markets keep re-clearing. It
// doubles as the latency probe — each RespondBid measures the turnaround
// since the previous one (one full market round: the manager collected
// every bid, cleared, and broadcast the next price). OnOrder resets the
// clock so inter-market gaps are never counted. Both callbacks run on
// the agent's loop goroutine, so the fields need no lock.
type loadBidder struct {
	delta  float64
	b      float64
	jitter float64
	rng    *rand.Rand
	hist   *hdr.Histogram
	lastNS int64
}

func (l *loadBidder) RespondBid(price float64) core.Bid {
	now := time.Now().UnixNano()
	if l.lastNS != 0 {
		l.hist.Record(float64(now-l.lastNS) / 1e9)
	}
	l.lastNS = now
	b := l.b
	if l.jitter > 0 {
		b *= 1 + l.jitter*(2*l.rng.Float64()-1)
		if b < 0 {
			b = 0
		}
	}
	return core.Bid{Delta: l.delta, B: b}
}

func (l *loadBidder) reset() { l.lastNS = 0 }

// agentSpec is one deterministic synthetic job. The same (seed, index)
// always yields the same spec, whatever the worker pool did.
type agentSpec struct {
	JobID        string
	Cores        float64
	WattsPerCore float64
	MaxFrac      float64
	Reluctance   float64
}

// specFor derives agent i's spec from the base seed alone.
func specFor(baseSeed int64, i int, dist string) agentSpec {
	rng := rand.New(rand.NewSource(runner.CellSeed(baseSeed, fmt.Sprintf("agent-%d", i))))
	s := agentSpec{
		JobID:        fmt.Sprintf("load-%06d", i),
		Cores:        16 + math.Floor(112*rng.Float64()),
		WattsPerCore: 125,
		MaxFrac:      0.2 + 0.4*rng.Float64(),
	}
	switch dist {
	case "uniform":
		s.Reluctance = rng.Float64()
	case "lognormal":
		// σ = 1, mean-corrected so E[r] = 1: a long reluctant tail over a
		// mostly willing fleet.
		s.Reluctance = math.Exp(rng.NormFloat64() - 0.5)
	case "bimodal":
		if rng.Float64() < 0.5 {
			s.Reluctance = 0.1 + 0.1*rng.Float64() // willing mode
		} else {
			s.Reluctance = 1.5 + 0.5*rng.Float64() // reluctant mode
		}
	}
	return s
}

// refPrice anchors reluctance to bid units: B = refPrice·Δ·r, so an
// agent with r = 1 withholds its entire Δ at the reference price.
const refPrice = 0.5

// harness owns one load run end to end.
type harness struct {
	cfg    loadConfig
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	store  *tsdb.Store
	rtt    *hdr.Histogram
	flight *flight.Recorder

	mgr    *agentproto.Manager // selfhost only
	agents []*agentproto.Agent

	targetW    float64
	dialErrors atomic.Int64
	orders     atomic.Int64 // sentinel agent's order count (-connect only)

	priceMu sync.Mutex
	price   clearPriceSection

	sloMu   sync.Mutex
	slo     alerts.Scorecard
	firings []alerts.Firing
	evals   int

	sampler *tsdb.TickerSampler
}

func newHarness(cfg loadConfig) (*harness, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	h := &harness{
		cfg:    cfg,
		reg:    telemetry.NewRegistry(),
		tracer: telemetry.NewTracer(4096),
		store:  tsdb.New(0),
		slo:    alerts.Scorecard{Rules: alerts.LoadRules()},
	}
	h.rtt = h.reg.HDR(metricRoundTrip, "Agent-observed market round turnaround in seconds.")
	// The harness always carries a flight recorder (no dump directory —
	// bundles are written explicitly via DumpTo on SLO failure): its
	// runtime sampler records the mpr_rt_* series during the run, which
	// is exactly the 100k-goroutine stack-memory measurement the C1M
	// roadmap item asks for.
	rec, err := flight.New(flight.Config{
		Registry: h.reg,
		Tracer:   h.tracer,
		Store:    h.store,
		Logf:     cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	h.flight = rec
	return h, nil
}

// connect builds the deterministic fleet and attaches it — to an
// in-process manager (selfhost) or to -connect. Dial failures are
// counted, not fatal: a load harness reports attrition instead of dying
// with it.
func (h *harness) connect() error {
	if h.cfg.Connect == "" {
		mgr, err := agentproto.NewManager("127.0.0.1:0", agentproto.ManagerConfig{
			RoundTimeout: roundTimeout,
			Telemetry:    h.reg,
			Tracer:       h.tracer,
			Shards:       h.cfg.Shards,
		})
		if err != nil {
			return err
		}
		h.mgr = mgr
	}

	specs := make([]agentSpec, h.cfg.Agents)
	var totalReductionW float64
	for i := range specs {
		specs[i] = specFor(h.cfg.Seed, i, h.cfg.Dist)
		totalReductionW += specs[i].Cores * specs[i].MaxFrac * specs[i].WattsPerCore
	}
	h.targetW = targetFrac * totalReductionW

	agents, err := runner.MapN(h.cfg.Workers, len(specs), func(i int) (*agentproto.Agent, error) {
		a, err := h.dialOne(i, specs[i])
		if err != nil {
			h.dialErrors.Add(1)
			h.cfg.Logf("dial agent %d: %v", i, err)
			return nil, nil // tolerated; reported as attrition
		}
		return a, nil
	})
	if err != nil {
		return err
	}
	h.agents = h.agents[:0]
	for _, a := range agents {
		if a != nil {
			h.agents = append(h.agents, a)
		}
	}
	if len(h.agents) == 0 {
		return fmt.Errorf("mprload: no agents connected (%d dial errors)", h.dialErrors.Load())
	}
	if h.mgr != nil {
		// DialConn returns once the hello is written, but registration
		// happens on the manager's serve goroutine — wait for the roster
		// to settle so the first markets don't run over an empty fleet.
		deadline := time.Now().Add(30 * time.Second)
		for h.mgr.AgentCount() < len(h.agents) {
			if time.Now().After(deadline) {
				return fmt.Errorf("mprload: only %d/%d agents registered after 30s",
					h.mgr.AgentCount(), len(h.agents))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (h *harness) dialOne(i int, spec agentSpec) (*agentproto.Agent, error) {
	bidder := &loadBidder{
		delta:  spec.Cores * spec.MaxFrac,
		b:      refPrice * spec.Cores * spec.MaxFrac * spec.Reluctance,
		jitter: h.cfg.Jitter,
		rng:    rand.New(rand.NewSource(runner.CellSeed(h.cfg.Seed, fmt.Sprintf("jitter-%d", i)))),
		hist:   h.rtt,
	}
	// Under -connect the sentinel agent's orders are the harness's only
	// view of the markets; self-hosted, drive records each market itself.
	sentinel := i == 0 && h.cfg.Connect != ""
	cfg := agentproto.AgentConfig{
		JobID:        spec.JobID,
		Cores:        spec.Cores,
		WattsPerCore: spec.WattsPerCore,
		MaxFrac:      spec.MaxFrac,
		Strategy:     bidder,
		Wire:         h.cfg.Wire,
		OnOrder: func(_, price, _ float64) {
			bidder.reset()
			if sentinel {
				h.orders.Add(1)
				h.recordClearPrice(price)
			}
		},
		OnLift: func() { bidder.reset() },
	}
	if h.cfg.Connect != "" {
		return agentproto.Dial(h.cfg.Connect, cfg)
	}
	mgrEnd, agentEnd := net.Pipe()
	if err := h.mgr.ServeConn(mgrEnd); err != nil {
		return nil, err
	}
	return agentproto.DialConn(agentEnd, cfg)
}

func (h *harness) recordClearPrice(price float64) {
	h.priceMu.Lock()
	if h.price.Samples == 0 || price < h.price.Min {
		h.price.Min = price
	}
	if h.price.Samples == 0 || price > h.price.Max {
		h.price.Max = price
	}
	h.price.Last = price
	h.price.Samples++
	h.priceMu.Unlock()
}

// liveAgents counts the fleet still attached.
func (h *harness) liveAgents() int {
	n := 0
	for _, a := range h.agents {
		select {
		case <-a.Done():
		default:
			n++
		}
	}
	return n
}

// sample appends one wall-clock observation of every series and runs the
// live SLO scorecard over the run so far, reporting each firing once.
func (h *harness) sample(now time.Time) {
	t := now.Unix()
	h.flight.SampleRuntime(now)
	if snap := h.rtt.Snapshot(); snap.Count > 0 {
		h.store.Series(seriesRTTP50).Append(t, snap.Quantile(0.50))
		h.store.Series(seriesRTTP99).Append(t, snap.Quantile(0.99))
		h.store.Series(seriesRTTP999).Append(t, snap.Quantile(0.999))
	}
	h.store.Series(seriesAgentsFrac).Append(t, float64(h.liveAgents())/float64(h.cfg.Agents))
	h.priceMu.Lock()
	price, have := h.price.Last, h.price.Samples > 0
	h.priceMu.Unlock()
	if have {
		h.store.Series(seriesClearPrice).Append(t, price)
	}

	h.sloMu.Lock()
	h.evals++
	firings := h.slo.Eval(h.store)
	h.firings = append(h.firings, firings...)
	h.sloMu.Unlock()
	for _, f := range firings {
		h.cfg.Logf("%s — %s", f, f.Help)
	}
	// No Dir: the recorder only retains the firings for a later DumpTo.
	h.flight.OnFirings(now, firings)
}

// run drives markets (selfhost) or observes external ones (connect) for
// the configured duration and assembles the report.
func (h *harness) run() (*loadReport, error) {
	start := time.Now()
	h.sampler = &tsdb.TickerSampler{
		Interval: sampleInterval,
		Sample:   h.sample,
	}
	ctx, cancel := context.WithCancel(context.Background())
	samplerDone := make(chan struct{})
	go func() { h.sampler.Run(ctx); close(samplerDone) }()

	var mk marketsSection
	deadline := start.Add(h.cfg.Duration)
	if h.mgr != nil {
		h.drive(deadline, &mk)
	} else {
		time.Sleep(time.Until(deadline))
		mk.Runs = int(h.orders.Load())
	}

	cancel()
	<-samplerDone

	report := &loadReport{
		Schema: loadSchema,
		Build:  telemetry.ReadBuildInfo(),
		Config: configSection{
			Agents:          h.cfg.Agents,
			Connect:         h.cfg.Connect,
			Mode:            h.cfg.Mode,
			DurationSeconds: h.cfg.Duration.Seconds(),
			IntervalSeconds: h.cfg.Interval.Seconds(),
			Dist:            h.cfg.Dist,
			Seed:            h.cfg.Seed,
			Workers:         h.cfg.Workers,
			TargetW:         h.targetW,
			Jitter:          h.cfg.Jitter,
			Wire:            h.cfg.Wire,
			Shards:          h.cfg.Shards,
		},
		Agents: agentsSection{
			Requested:  h.cfg.Agents,
			Connected:  len(h.agents),
			DialErrors: int(h.dialErrors.Load()),
			Remaining:  h.liveAgents(),
		},
		Markets:        mk,
		ElapsedSeconds: time.Since(start).Seconds(),
	}
	snap := h.reg.Snapshot()
	report.RoundTripSeconds = snap.HDR(metricRoundTrip)
	report.BidRTTSeconds = snap.HDR(agentproto.MetricBidRTT)
	h.priceMu.Lock()
	report.ClearPrice = h.price
	h.priceMu.Unlock()
	h.sloMu.Lock()
	report.SLO = sloSection{
		Rules:       h.slo.Rules,
		Evaluations: h.evals,
		Firings:     append([]alerts.Firing{}, h.firings...),
		Passed:      len(h.firings) == 0,
	}
	h.sloMu.Unlock()
	return report, nil
}

// drive clears markets until the deadline. Open-loop mode schedules one
// market per interval on an absolute timeline (falling behind counts a
// late start and proceeds immediately — the harness never queues);
// closed-loop mode runs back to back.
func (h *harness) drive(deadline time.Time, mk *marketsSection) {
	k := 0
	start := time.Now()
	for time.Now().Before(deadline) {
		if h.cfg.Mode == "open" {
			next := start.Add(time.Duration(k) * h.cfg.Interval)
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			} else if k > 0 {
				mk.LateStarts++
			}
			k++
			if !time.Now().Before(deadline) {
				break
			}
		}
		out, err := h.mgr.RunMarket(h.targetW)
		mk.Runs++
		if err != nil {
			mk.Errors++
			h.cfg.Logf("market %d: %v", mk.Runs, err)
			// An erroring market (e.g. the whole fleet died) returns
			// instantly — don't let closed-loop mode spin on it.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		mk.RoundsTotal += out.Result.Rounds
		if out.Result.Converged {
			mk.Converged++
		}
		h.recordClearPrice(out.Result.Price)
	}
}

// close tears the fleet and the selfhost manager down.
func (h *harness) close() {
	for _, a := range h.agents {
		a.Close()
	}
	if h.mgr != nil {
		h.mgr.Close()
	}
}
