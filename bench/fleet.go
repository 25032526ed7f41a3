package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/telemetry"
)

// fleetSpec is one of the two fleet workloads: the same fleet and market
// script over a different wire, transport and solver.
type fleetSpec struct {
	name      string
	wire      string // agentproto.WireBinary or WireJSON
	tcp       bool   // TCP over host loopback; otherwise in-memory net.Pipe
	streaming bool   // ManagerConfig.Streaming
	scale
}

var fleetSpecs = map[string]fleetSpec{
	"fleet_bin_tcp":     {name: "fleet_bin_tcp", wire: agentproto.WireBinary, tcp: true},
	"fleet_json_stream": {name: "fleet_json_stream", wire: agentproto.WireJSON, streaming: true},
}

// agentSpec is one generated job and its private cost model.
type agentSpec struct {
	JobID   string
	Cores   float64
	Profile *perf.Profile
	Alpha   float64
}

// genFleet draws n agents from seed: profile over the CPU catalog,
// α ∈ [0.5,1.5), cores ∈ {8,16,24,32}. The draw is stratified — every
// profile and core count equally often, one α per 1/n-wide stratum, each
// dealt to the agents in a seeded order — so that the seed decides who
// gets what while the population, and with it the rounds a market takes,
// stays nearly the same from seed to seed.
func genFleet(seed int64, n int) []agentSpec {
	rng := rand.New(rand.NewSource(seed))
	profiles := perf.CPUProfiles()
	profileOf, coresOf, stratumOf := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	specs := make([]agentSpec, n)
	for i := range specs {
		specs[i] = agentSpec{
			JobID:   fmt.Sprintf("job-%05d", i),
			Profile: profiles[profileOf[i]%len(profiles)],
			Alpha:   0.5 + (float64(stratumOf[i])+rng.Float64())/float64(n),
			Cores:   float64(8 * (1 + coresOf[i]%4)),
		}
	}
	return specs
}

func (s agentSpec) bidder() *core.RationalBidder {
	return &core.RationalBidder{Cores: s.Cores, Model: perf.NewCostModelUnchecked(s.Profile, s.Alpha, perf.CostLinear)}
}

var wattsPerCore = power.DefaultCPUCoreModel.DynamicW

func (s agentSpec) participant() *core.Participant {
	return &core.Participant{JobID: s.JobID, Cores: s.Cores, WattsPerCore: wattsPerCore, MaxFrac: s.Profile.MaxReduction()}
}

// targetShares spreads the market script's reduction targets evenly over
// 15–35 % of the reducible watts.
func targetShares(levels int) []float64 {
	shares := make([]float64, levels)
	for k := range shares {
		shares[k] = 0.15 + 0.20*float64(k)/float64(max(levels-1, 1))
	}
	return shares
}

// fleetTargets returns the market script's reduction targets in watts.
func fleetTargets(specs []agentSpec, levels int) []float64 {
	reducible := 0.0
	for _, s := range specs {
		reducible += s.Cores * s.Profile.MaxReduction() * wattsPerCore
	}
	targets := targetShares(levels)
	for k := range targets {
		targets[k] *= reducible
	}
	return targets
}

// fleet is a running manager with its registered agents.
type fleet struct {
	spec    fleetSpec
	specs   []agentSpec
	mgr     *agentproto.Manager
	agents  []*agentproto.Agent
	reg     *telemetry.Registry // nil untraced
	tracer  *telemetry.Tracer   // nil untraced
	agentIO *connStats          // agent ends, traced only
	mgrIO   *connStats          // manager ends, traced net.Pipe only
	startNS int64
	setupS  float64

	orders    atomic.Int64 // orders received in the market in flight
	lastOrder chan int64   // when the last of them landed, sent by the agent it landed on
	markets   int          // markets run so far, for the one-order-each check
	parts     []*core.Participant
}

// startFleet starts a manager and registers every agent, dialing from
// this one goroutine. traced hands the manager a registry and a tracer
// through its public config and wraps the connection ends the bench
// creates in counting conns; untraced leaves all of that nil.
func startFleet(spec fleetSpec, specs []agentSpec, traced bool) (*fleet, error) {
	f := &fleet{spec: spec, specs: specs, lastOrder: make(chan int64, 1)}
	cfg := agentproto.ManagerConfig{Streaming: spec.streaming}
	if traced {
		f.reg = telemetry.NewRegistry()
		// One market's spans must fit the ring: a respond_bid per agent
		// per round plus two spans per round. Spans are drained after
		// every market, so round spans are never evicted.
		f.tracer = telemetry.NewTracer(len(specs)*52 + 256)
		f.agentIO, f.mgrIO = &connStats{}, &connStats{}
		cfg.Telemetry, cfg.Tracer = f.reg, f.tracer
	}
	start := time.Now()
	f.startNS = start.UnixNano()
	mgr, err := agentproto.NewManager("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	for _, s := range specs {
		a, err := f.dial(s, traced)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial %s: %w", s.JobID, err)
		}
		f.agents = append(f.agents, a)
	}
	// DialConn returns once the hello is written; registration happens on
	// the manager's serve goroutine.
	for deadline := time.Now().Add(30 * time.Second); mgr.AgentCount() < len(specs); {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("%d of %d agents registered after 30s", mgr.AgentCount(), len(specs))
		}
		time.Sleep(200 * time.Microsecond)
	}
	f.setupS = time.Since(start).Seconds()
	f.parts = make([]*core.Participant, len(specs))
	for i, s := range specs {
		f.parts[i] = s.participant()
	}
	return f, nil
}

func (f *fleet) dial(s agentSpec, traced bool) (*agentproto.Agent, error) {
	var agentEnd net.Conn
	if f.spec.tcp {
		c, err := net.Dial("tcp", f.mgr.Addr())
		if err != nil {
			return nil, err
		}
		agentEnd = c
	} else {
		var mgrEnd net.Conn
		mgrEnd, agentEnd = net.Pipe()
		if traced {
			mgrEnd = countingConn{mgrEnd, f.mgrIO}
		}
		if err := f.mgr.ServeConn(mgrEnd); err != nil {
			agentEnd.Close()
			return nil, err
		}
	}
	if traced {
		agentEnd = countingConn{agentEnd, f.agentIO}
	}
	n := int64(len(f.specs))
	return agentproto.DialConn(agentEnd, agentproto.AgentConfig{
		JobID:        s.JobID,
		Cores:        s.Cores,
		WattsPerCore: wattsPerCore,
		MaxFrac:      s.Profile.MaxReduction(),
		Strategy:     s.bidder(),
		Wire:         f.spec.wire,
		OnOrder: func(_, _, _ float64) {
			if f.orders.Add(1) == n {
				f.lastOrder <- time.Now().UnixNano()
			}
		},
	})
}

func (f *fleet) close() {
	for _, a := range f.agents {
		a.Close()
	}
	f.mgr.Close()
	for _, a := range f.agents {
		<-a.Done()
	}
}

// marketTiming is the bench's own account of one market, in nanoseconds
// on the wall clock the manager's spans also use.
type marketTiming struct {
	startNS, returnNS, lastOrderNS, liftEndNS int64
	out                                       *agentproto.MarketOutcome
	clearS                                    float64 // the check's fresh core.Clear
}

// runMarket declares one emergency, waits until every agent holds its
// order, lifts it, and checks the outcome. The returned problem is empty
// when the market is good.
func (f *fleet) runMarket(targetW float64) (marketTiming, string) {
	var t marketTiming
	f.orders.Store(0)
	f.markets++
	t.startNS = time.Now().UnixNano()
	out, err := f.mgr.RunMarket(targetW)
	t.returnNS = time.Now().UnixNano()
	if err != nil {
		return t, fmt.Sprintf("RunMarket: %v", err)
	}
	t.out = out
	select {
	case t.lastOrderNS = <-f.lastOrder:
	case <-time.After(5 * time.Second):
		return t, fmt.Sprintf("market %s: %d of %d orders landed", out.TraceID, f.orders.Load(), len(f.agents))
	}
	f.mgr.Lift()
	t.liftEndNS = time.Now().UnixNano()

	// Checks, outside every timed interval: one order each, converged,
	// target met, and the price reproduced from the bids the agents hold.
	if !out.Result.Converged {
		return t, fmt.Sprintf("market %s did not converge in %d rounds", out.TraceID, out.Result.Rounds)
	}
	for i, a := range f.agents {
		if got := a.Orders(); got != f.markets {
			return t, fmt.Sprintf("market %s: agent %s holds %d orders, want %d", out.TraceID, f.specs[i].JobID, got, f.markets)
		}
		f.parts[i].Bid = a.LastBid()
	}
	clearStart := time.Now()
	ref, err := core.Clear(f.parts, targetW)
	t.clearS = time.Since(clearStart).Seconds()
	if err != nil {
		return t, fmt.Sprintf("market %s: re-clear: %v", out.TraceID, err)
	}
	if f.spec.streaming {
		if relDiff(ref.Price, out.Result.Price) > 1e-9 {
			return t, fmt.Sprintf("market %s: price %v, re-clear gives %v", out.TraceID, out.Result.Price, ref.Price)
		}
	} else if ref.Price != out.Result.Price {
		return t, fmt.Sprintf("market %s: price %v not bit-identical to re-clear %v", out.TraceID, out.Result.Price, ref.Price)
	}
	if out.Result.SuppliedW < targetW*(1-1e-9) {
		return t, fmt.Sprintf("market %s: supplied %v W below target %v W", out.TraceID, out.Result.SuppliedW, targetW)
	}
	return t, ""
}

// fleetLoop is what a timed loop over one fleet measured.
type fleetLoop struct {
	cycleS   []float64 // per complete cycle of the target script: Σ RunMarket call → Lift returned
	latencyS []float64 // RunMarket call → last order landed
	callS    []float64 // RunMarket call → return
	waitS    []float64 // return → last order landed (may be negative)
	clearS   []float64 // the check's fresh core.Clear
	wallS    float64   // the timed loop, checks excluded
	rounds   int
	markets  int
}

// warmUp runs the untimed markets that let connections, buffers and the
// manager's roster settle. after, when set, sees every market.
func (f *fleet) warmUp(res *Result, targets []float64, after func(marketTiming)) {
	for i := 0; i < f.spec.warmup; i++ {
		_, problem := f.runMarket(targets[i%len(targets)])
		res.op(problem)
		if after != nil {
			after(marketTiming{})
		}
	}
}

// timedLoop adds whole cycles of the target script to l until seconds
// more have passed and two cycles are in. after, when set, sees every
// market; a failed one arrives with a nil outcome.
func (f *fleet) timedLoop(l *fleetLoop, res *Result, targets []float64, seconds float64, after func(marketTiming)) {
	for until := l.wallS + seconds; l.wallS < until || l.markets < 2*len(targets); {
		cycleS, good := 0.0, 0
		for k, target := range targets {
			t, problem := f.runMarket(target)
			res.op(problem)
			if problem != "" {
				t.out = nil
			}
			if after != nil {
				after(t)
			}
			if problem != "" {
				continue
			}
			latency, wall := float64(t.lastOrderNS-t.startNS)/1e9, float64(t.liftEndNS-t.startNS)/1e9
			cycleS += wall
			good++
			l.markets++
			l.rounds += t.out.Result.Rounds
			l.latencyS = append(l.latencyS, latency)
			l.callS = append(l.callS, float64(t.returnNS-t.startNS)/1e9)
			l.waitS = append(l.waitS, float64(t.lastOrderNS-t.returnNS)/1e9)
			l.wallS += wall
			l.clearS = append(l.clearS, t.clearS)
			res.fact(fmt.Sprintf("%s.rounds.level%d", f.spec.name, k), float64(t.out.Result.Rounds))
			res.fact(fmt.Sprintf("price.%s.level%d", f.spec.name, k), t.out.Result.Price)
		}
		if good == len(targets) { // a failed market spoils its cycle
			l.cycleS = append(l.cycleS, cycleS)
		}
		if res.Failed > 3*len(targets) {
			return // a broken fleet must not spin until the deadline
		}
	}
}

// fleetSection is a fleet workload between set-up and report.
type fleetSection struct {
	res     *Result
	spec    fleetSpec
	specs   []agentSpec
	targets []float64
	setups  []float64
	f       *fleet // the fleet measured: traced in the traced pass
	loop    fleetLoop

	// Traced pass only. A quarter of every slice goes to a fleet with
	// nothing handed in, the base of the tracing overhead.
	plain               *fleet
	base                fleetLoop
	rec                 *recorder
	acct                *roundAccount
	ioBefore, mgrBefore connCounts
}

// openFleet sets the workload up and runs the warm-up markets.
func openFleet(spec fleetSpec, seed int64, traced bool) (*fleetSection, error) {
	s := &fleetSection{res: newResult(spec.name, seed, traced), spec: spec}
	s.specs = genFleet(seed, spec.agents)
	s.targets = fleetTargets(s.specs, spec.levels)
	s.res.fact(spec.name+".agents", float64(len(s.specs)))
	var err error
	if traced {
		if s.plain, err = startFleet(spec, s.specs, false); err != nil {
			return nil, err
		}
		s.plain.warmUp(s.res, s.targets, nil)
		if s.f, err = startFleet(spec, s.specs, true); err != nil {
			s.plain.close()
			return nil, err
		}
		s.rec, s.acct = &recorder{}, &roundAccount{}
		s.rec.add("connect", 0, "", s.f.startNS, s.f.startNS+int64(s.f.setupS*1e9))
		s.f.warmUp(s.res, s.targets, s.drain)
		s.ioBefore, s.mgrBefore = s.f.agentIO.load(), s.f.mgrIO.load()
		return s, nil
	}
	if s.f, err = startFleet(spec, s.specs, false); err != nil {
		return nil, err
	}
	s.setups = []float64{s.f.setupS}
	s.f.warmUp(s.res, s.targets, nil)
	return s, nil
}

func (s *fleetSection) drain(t marketTiming) { s.acct.drain(s.f.tracer, s.rec, t) }

func (s *fleetSection) measure(seconds float64) {
	if s.plain != nil {
		s.plain.timedLoop(&s.base, s.res, s.targets, seconds/4, nil)
		s.f.timedLoop(&s.loop, s.res, s.targets, seconds*3/4, s.drain)
		return
	}
	// One more set-up per slice, beside the fleet being measured, so that
	// setup_s samples the whole run as the other metrics do.
	again, err := startFleet(s.spec, s.specs, false)
	if err != nil {
		s.res.fail(fmt.Sprintf("set-up: %v", err))
		return
	}
	s.setups = append(s.setups, again.setupS)
	again.close()
	s.f.timedLoop(&s.loop, s.res, s.targets, seconds, nil)
}

func (s *fleetSection) close() {
	for _, f := range []*fleet{s.plain, s.f} {
		if f != nil {
			f.close()
		}
	}
	s.plain, s.f = nil, nil
}

func (s *fleetSection) finish() (*Result, error) {
	res, l := s.res, &s.loop
	if l.markets == 0 {
		return res, nil
	}
	if res.Traced {
		return res, s.finishTraced()
	}
	if len(l.cycleS) == 0 {
		res.fail("no complete cycle of the target script")
		return res, nil
	}
	// Every cycle is the same work, so the rate is a cycle's markets over
	// the median cycle: a mean over the loop's wall clock would carry every
	// slow second of a shared host straight into the number.
	res.add(
		Metric{Name: "setup_s", Value: median(s.setups), Unit: "s", N: len(s.setups)},
		timing("market_p50_ms", "ms", l.latencyS, 1e3),
		Metric{Name: "market_p90_ms", Value: quantile(l.latencyS, 0.90) * 1e3, Unit: "ms", N: len(l.latencyS)},
		Metric{Name: "markets_per_s", Value: float64(len(s.targets)) / median(l.cycleS), Unit: "1/s", N: l.markets},
	)
	return res, nil
}

// finishTraced accounts for the traced markets layer by layer.
func (s *fleetSection) finishTraced() error {
	res, f, l, acct, spec := s.res, s.f, &s.loop, s.acct, s.spec
	io := f.agentIO.load().sub(s.ioBefore)
	mgrIO := f.mgrIO.load().sub(s.mgrBefore)
	agentRounds := float64(len(s.specs) * l.rounds)

	// The latency account: what the manager's own spans say a market is
	// made of must add up to what the bench saw from outside.
	installDeliver := make([]float64, len(acct.roundSumS))
	for i := range installDeliver {
		installDeliver[i] = l.callS[i] - acct.roundSumS[i]
	}
	parts := median(installDeliver) + median(acct.roundSumS) + median(l.waitS)
	reconcile := relDiff(parts, median(l.latencyS))
	if reconcile > 0.05 && l.markets >= 20 { // medians of a handful of markets need not add up
		res.fail(fmt.Sprintf("reconcile_failed: install/deliver + rounds + order wait = %.3f ms, market latency %.3f ms", parts*1e3, median(l.latencyS)*1e3))
	}
	if acct.dropped != 0 {
		res.fail(fmt.Sprintf("%d spans dropped by the tracer ring", acct.dropped))
	}

	snap := f.reg.Snapshot()
	rtt := snap.HDR(agentproto.MetricBidRTT)
	evictions := int64(0)
	for _, reason := range []agentproto.DisconnectReason{agentproto.ReasonDeadlineBudget, agentproto.ReasonWriteStall} {
		evictions += f.reg.CounterFamily(agentproto.MetricEvictions, "", "reason").With(string(reason)).Value()
	}
	mgrWrites := 0.0
	if !spec.tcp { // the manager end of a TCP connection is not the bench's to wrap
		mgrWrites = float64(mgrIO.writes) / agentRounds
	}
	overhead := 0.0
	if s.base.markets > 0 {
		overhead = (median(l.latencyS) - median(s.base.latencyS)) / median(s.base.latencyS)
	}
	res.add(
		timing("agentproto.round_p50_ms", "ms", acct.roundS, 1e3),
		Metric{Name: "agentproto.round_p99_ms", Value: quantile(acct.roundS, 0.99) * 1e3, Unit: "ms", N: len(acct.roundS)},
		timing("agentproto.respond_bids_p50_ms", "ms", acct.respondS, 1e3),
		timing("agentproto.round_self_p50_us", "us", acct.selfS, 1e6),
		timing("agentproto.install_deliver_p50_ms", "ms", installDeliver, 1e3),
		timing("agentproto.order_wait_p50_ms", "ms", l.waitS, 1e3),
		scalar("agentproto.reconcile_err_frac", "frac", reconcile),
		scalar("agentproto.us_per_agent_round", "us", l.wallS*1e6/agentRounds),
		Metric{Name: "agentproto.rounds_per_market", Value: float64(l.rounds) / float64(l.markets), Unit: "count", N: l.markets},
		Metric{Name: "agentproto.bid_rtt_p50_ms", Value: rtt.P50 * 1e3, Unit: "ms", N: int(rtt.Count)},
		Metric{Name: "agentproto.bid_rtt_p99_ms", Value: rtt.P99 * 1e3, Unit: "ms", N: int(rtt.Count)},
		Metric{Name: "agentproto.negative_rtt_spans", Value: float64(acct.negative), Unit: "count", N: acct.respondBid},
		scalar("agentproto.bytes_per_agent_round", "B", float64(io.writeBytes+io.readBytes)/agentRounds),
		scalar("agentproto.agent_writes_per_agent_round", "count", float64(io.writes)/agentRounds),
		scalar("agentproto.mgr_writes_per_agent_round", "count", mgrWrites),
		scalar("agentproto.coalesced_bids", "count", float64(snap.Counter(agentproto.MetricCoalescedBids))),
		scalar("agentproto.bid_timeouts", "count", float64(snap.Counter(agentproto.MetricBidTimeouts))),
		scalar("agentproto.evictions", "count", float64(evictions)),
		scalar("agentproto.malformed", "count", float64(snap.Counter(agentproto.MetricMalformed))),
		timing("core.clear_fresh_fleet_us", "us", l.clearS, 1e6),
		scalar("telemetry.trace_overhead_frac.fleet", "frac", overhead),
		scalar("telemetry.spans_dropped", "count", float64(acct.dropped)),
	)
	ms, err := snapshotMetrics(f.mgr)
	if err != nil {
		return err
	}
	res.add(ms...)
	s.close() // before the codec timings: allocation counts are process-wide
	res.add(codecMetrics(s.targets[0], s.specs[0])...)
	res.Spans = s.rec.spans
	return nil
}

// roundAccount turns the manager's own spans into per-round and
// per-market samples. The tracer ring cannot be cleared, so drain reads
// it after every market and keeps the spans with IDs it has not seen.
type roundAccount struct {
	lastID     uint64
	seen       uint64
	dropped    uint64
	roundS     []float64 // market_round
	respondS   []float64 // respond_bids
	selfS      []float64 // market_round minus its respond_bids: merge + clear
	roundSumS  []float64 // per market: Σ market_round
	respondBid int       // per-agent respond_bid spans seen
	negative   int       // … that end before they start
}

// drain consumes the spans of the market that just finished. Those of a
// warm-up or failed market (nil outcome) are only marked as seen.
func (a *roundAccount) drain(tr *telemetry.Tracer, rec *recorder, t marketTiming) {
	var fresh []telemetry.Span
	maxID := a.lastID
	for _, s := range tr.Spans() {
		if s.ID > a.lastID {
			fresh = append(fresh, s)
			if s.ID > maxID {
				maxID = s.ID
			}
		}
	}
	a.seen += uint64(len(fresh))
	a.lastID = maxID
	a.dropped = maxID - a.seen // IDs are dense, so a gap is a span the ring lost
	if t.out == nil {
		return
	}

	market := t.out.TraceID
	top := rec.add("market", 0, market, t.startNS, t.lastOrderNS)
	call := rec.add("RunMarket", top, market, t.startNS, t.returnNS)
	rec.add("order_wait", top, market, t.returnNS, t.lastOrderNS)
	rec.add("Lift", 0, market, t.lastOrderNS, t.liftEndNS)
	rec.add("reclear_check", 0, market, t.liftEndNS, t.liftEndNS+int64(t.clearS*1e9))

	ids := map[uint64]uint64{} // manager span ID → recorder span ID
	respondOf := map[uint64]float64{}
	roundSum := 0.0
	// Parents finish after their children, so link in two passes.
	for _, s := range fresh {
		if s.Name == "market" {
			ids[s.ID] = rec.add("agentproto.market", call, market, s.StartNS, s.EndNS)
		}
	}
	for _, s := range fresh {
		if s.Name == "market_round" {
			ids[s.ID] = rec.add("agentproto.market_round", ids[s.Parent], market, s.StartNS, s.EndNS)
			d := s.Duration().Seconds()
			a.roundS = append(a.roundS, d)
			roundSum += d
		}
	}
	for _, s := range fresh {
		switch s.Name {
		case "respond_bids":
			rec.add("agentproto.respond_bids", ids[s.Parent], market, s.StartNS, s.EndNS)
			a.respondS = append(a.respondS, s.Duration().Seconds())
			respondOf[s.Parent] = s.Duration().Seconds()
		case "respond_bid":
			// Per-agent spans are counted, not kept: a thousand per round
			// would drown the output file.
			a.respondBid++
			if s.EndNS < s.StartNS {
				a.negative++
			}
		}
	}
	for _, s := range fresh {
		if s.Name == "market_round" {
			a.selfS = append(a.selfS, s.Duration().Seconds()-respondOf[s.ID])
		}
	}
	a.roundSumS = append(a.roundSumS, roundSum)
}

// snapshotMetrics times SnapshotState + WriteStateFile of the roster.
func snapshotMetrics(mgr *agentproto.Manager) ([]Metric, error) {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.json")
	var secs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		st := mgr.SnapshotState(start.UnixNano())
		if err := agentproto.WriteStateFile(path, st); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return []Metric{
		timing("agentproto.snapshot_ms", "ms", secs, 1e3),
		scalar("agentproto.snapshot_bytes", "B", float64(info.Size())),
	}, nil
}

// msgCodec is the part of both wire codecs the micro-timings use.
type msgCodec interface {
	Send(agentproto.Message) error
	Recv() (agentproto.Message, error)
}

// codecMetrics times both codecs over a bytes.Buffer on the workload's
// own messages: a round's price broadcast and an agent's answering bid.
func codecMetrics(targetW float64, s agentSpec) []Metric {
	price := agentproto.Message{Type: agentproto.MsgPrice, Round: 7, Price: 0.1, TargetW: targetW, TraceID: "m12.r7"}
	bid := s.bidder().RespondBid(price.Price)
	msgs := []agentproto.Message{price, {Type: agentproto.MsgBid, Round: 7, Delta: bid.Delta, B: bid.B, TraceID: "m12.r7"}}

	var out []Metric
	for _, c := range []struct {
		name string
		make func(*bytes.Buffer) msgCodec
	}{
		{"frame", func(b *bytes.Buffer) msgCodec { return agentproto.NewFrameCodec(b, b) }},
		{"json", func(b *bytes.Buffer) msgCodec { return agentproto.NewCodec(b) }},
	} {
		const batch, reps = 2000, 15
		var buf bytes.Buffer
		codec := c.make(&buf)
		var enc, dec []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < batch; i++ {
				if err := codec.Send(msgs[i%2]); err != nil {
					panic(err) // a bytes.Buffer does not fail
				}
			}
			mid := time.Now()
			for i := 0; i < batch; i++ {
				if _, err := codec.Recv(); err != nil {
					panic(err)
				}
			}
			enc = append(enc, mid.Sub(start).Seconds()/batch)
			dec = append(dec, time.Since(mid).Seconds()/batch)
		}
		i := 0
		allocs := allocsPer(batch, func() {
			_ = codec.Send(msgs[i%2])
			_, _ = codec.Recv()
			i++
		})
		out = append(out,
			Metric{Name: "agentproto." + c.name + "_encode_ns", Value: median(enc) * 1e9, Unit: "ns", N: reps * batch},
			Metric{Name: "agentproto." + c.name + "_decode_ns", Value: median(dec) * 1e9, Unit: "ns", N: reps * batch},
			Metric{Name: "agentproto." + c.name + "_allocs_per_msg", Value: allocs, Unit: "count", N: batch},
		)
	}
	return out
}
