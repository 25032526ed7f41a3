package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mpr/internal/core"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/hdr"
	"mpr/internal/telemetry/tsdb"
)

// coreSizes are the pool sizes of the core_clear phases.
type coreSizes struct {
	clear       int // phases A and B
	stream      int // phase C
	interactive int // phase D
	baseline    int // OPT and EQL, the baselines the simulator calls
}

const (
	indexBatch  = 16   // bids changed per phase-B step
	indexSteps  = 16   // phase-B steps per turn
	streamBlock = 1000 // phase-C applies per timing sample
	streamSteps = 20   // phase-C blocks per turn
	checkTurns  = 8    // turns between the checks of phases B and C
)

// corePools is the set-up product of core_clear: the seeded pools and
// the index and treap built over them.
type corePools struct {
	agents []agentSpec         // the largest pool; phases use prefixes of it
	orig   []core.Bid          // each participant's first bid
	alt    []core.Bid          // … and its second; phases B and C toggle between them
	fresh  []*core.Participant // phase A: never touched
	clear  []*core.Participant // phase B: shadows the bids set in the index
	stream []*core.Participant // phase C: shadows the bids applied to the treap; D reads a prefix
	index  *core.MarketIndex
	treap  *core.StreamMarket
	shares []float64 // target levels, as a share of a pool's reducible watts

	indexBuildS, streamBuildS float64
}

// genPool draws n participants from seed, each holding the bid its
// rational bidder answers to a seeded price, plus a second bid (the
// answer to another price) for the write-heavy phases to toggle to.
func genPool(seed int64, n int) (agents []agentSpec, ps []*core.Participant, alt []core.Bid) {
	agents = genFleet(seed, n)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ps = make([]*core.Participant, n)
	alt = make([]core.Bid, n)
	for i, a := range agents {
		b := a.bidder()
		ps[i] = a.participant()
		ps[i].Bid = b.RespondBid(0.05 + 0.5*rng.Float64())
		alt[i] = b.RespondBid(0.05 + 0.5*rng.Float64())
	}
	return agents, ps, alt
}

// reducibleW is the pool's aggregate supply ceiling in watts.
func reducibleW(ps []*core.Participant) float64 {
	w := 0.0
	for _, p := range ps {
		w += p.MaxReduction() * p.WattsPerCore
	}
	return w
}

func buildCorePools(seed int64, sz coreSizes) (*corePools, error) {
	p := &corePools{}
	p.agents, p.stream, p.alt = genPool(seed, sz.stream)
	p.orig = make([]core.Bid, len(p.stream))
	for i, q := range p.stream {
		p.orig[i] = q.Bid
	}
	// The phases take turns, so each works on a pool of its own.
	p.fresh = make([]*core.Participant, sz.clear)
	p.clear = make([]*core.Participant, sz.clear)
	for i := range p.clear {
		a, b := *p.stream[i], *p.stream[i]
		p.fresh[i], p.clear[i] = &a, &b
	}
	p.shares = targetShares(7)
	start := time.Now()
	ix, err := core.NewMarketIndex(p.clear)
	if err != nil {
		return nil, err
	}
	p.index, p.indexBuildS = ix, time.Since(start).Seconds()
	start = time.Now()
	sm, err := core.NewStreamMarket(p.stream, p.shares[3]*reducibleW(p.stream))
	if err != nil {
		return nil, err
	}
	p.treap, p.streamBuildS = sm, time.Since(start).Seconds()
	return p, nil
}

// toggler walks a pool in roster order, as the manager's merge does, and
// hands out, for each participant it visits, the bid it does not
// currently hold.
type toggler struct {
	p       *corePools
	cursor  int
	flipped []bool
}

func newToggler(p *corePools, n int) *toggler {
	return &toggler{p: p, flipped: make([]bool, n)}
}

func (t *toggler) next() (int, core.Bid) {
	i := t.cursor % len(t.flipped)
	t.cursor++
	t.flipped[i] = !t.flipped[i]
	if t.flipped[i] {
		return i, t.p.alt[i]
	}
	return i, t.p.orig[i]
}

// checkAgainstClear compares an incremental solver's price with a fresh
// core.Clear over the bids the bench has shadowed.
func checkAgainstClear(what string, ps []*core.Participant, targetW, price float64) string {
	ref, err := core.Clear(ps, targetW)
	if err != nil {
		return fmt.Sprintf("%s: reference clear: %v", what, err)
	}
	if relDiff(ref.Price, price) > 1e-9 {
		return fmt.Sprintf("%s: price %v, fresh clear gives %v", what, price, ref.Price)
	}
	return ""
}

// coreRun is one core_clear run. The four phases take turns — a cycle of
// clears, a few index steps, a few blocks of applies, one interactive
// market — until the time is up, so that each phase samples the whole
// run and a slow second on a shared host lands on all of them alike.
type coreRun struct {
	res *Result
	rec *recorder
	p   *corePools
	sz  coreSizes

	clearS [][]float64 // A: seconds per fresh clear, by target level

	setbidS, clearIntoS []float64 // B: per step
	indexOut            core.ClearingResult
	indexTog            *toggler

	applyS      []float64 // C: seconds per apply, one sample per block
	streamTog   *toggler
	streamPrice float64

	bidders      []core.Bidder // D
	tracer       *telemetry.Tracer
	plainS, intS [3][]float64 // per market, by target level: nothing handed in, span and trace handed in
	intRounds    int

	turns                             int
	setups, indexBuilds, streamBuilds []float64
}

func (c *coreRun) span(name string, start time.Time) float64 {
	end := time.Now()
	c.rec.add(name, 0, "", start.UnixNano(), end.UnixNano())
	return end.Sub(start).Seconds()
}

// turnA is phase A, the fresh core.Clear the manager pays per round: one
// clear at each target level.
func (c *coreRun) turnA() float64 {
	start := time.Now()
	w := reducibleW(c.p.fresh)
	for k, share := range c.p.shares {
		t0 := time.Now()
		r, err := core.Clear(c.p.fresh, share*w)
		c.clearS[k] = append(c.clearS[k], time.Since(t0).Seconds())
		if err != nil {
			c.res.op(fmt.Sprintf("phase A clear: %v", err))
			continue
		}
		c.res.op("")
		c.res.fact(fmt.Sprintf("price.core.clear.level%d", k), r.Price)
	}
	return c.span("core.phaseA.Clear", start)
}

func (c *coreRun) indexTarget() float64 { return c.p.shares[3] * reducibleW(c.p.clear) }

// turnB is phase B, the MarketIndex steady state: a few bids change, the
// index refreshes, and the market re-clears into a reused result.
func (c *coreRun) turnB(check bool) float64 {
	start := time.Now()
	p, target := c.p, c.indexTarget()
	for s := 0; s < indexSteps; s++ {
		t0 := time.Now()
		var err error
		for j := 0; j < indexBatch && err == nil; j++ {
			i, b := c.indexTog.next()
			p.clear[i].Bid = b
			err = p.index.SetBid(i, b)
		}
		p.index.Refresh()
		t1 := time.Now()
		if err == nil {
			err = p.index.ClearInto(&c.indexOut, target)
		}
		c.clearIntoS = append(c.clearIntoS, time.Since(t1).Seconds())
		c.setbidS = append(c.setbidS, t1.Sub(t0).Seconds())
		if err != nil {
			c.res.fail(fmt.Sprintf("phase B step: %v", err))
		}
	}
	spent := c.span("core.phaseB.MarketIndex", start)
	if check {
		c.res.op(checkAgainstClear("phase B index", p.clear, target, c.indexOut.Price))
	}
	return spent
}

// turnC is phase C, StreamMarket.Apply: one bid at a time, each
// re-clearing the market.
func (c *coreRun) turnC(check bool) float64 {
	start := time.Now()
	p := c.p
	for blk := 0; blk < streamSteps; blk++ {
		t0 := time.Now()
		for j := 0; j < streamBlock; j++ {
			i, b := c.streamTog.next()
			p.stream[i].Bid = b
			var err error
			if c.streamPrice, _, err = p.treap.Apply(core.ParticipantDelta{Index: i, Bid: b}); err != nil {
				c.res.fail(fmt.Sprintf("phase C apply: %v", err))
			}
		}
		c.applyS = append(c.applyS, time.Since(t0).Seconds()/streamBlock)
	}
	spent := c.span("core.phaseC.StreamMarket", start)
	if check {
		c.res.op(checkAgainstClear("phase C stream", p.stream, p.treap.Target(), c.streamPrice))
	}
	return spent
}

// turnD is phase D, one MPR-INT market in process: rational bidders,
// default config, the target level cycling. The traced pass hands a span
// and a trace in through InteractiveConfig (intS), except on every fourth
// cycle of the levels, which runs with nothing handed in (plainS) and is
// the base of the tracing overhead.
func (c *coreRun) turnD() float64 {
	pool := c.p.stream[:c.sz.interactive]
	w := reducibleW(pool)
	n := c.turns - 1
	k := n % 3
	share := c.p.shares[3*k]
	cfg := core.InteractiveConfig{}
	tracing := c.res.Traced && n/3%4 != 0
	var root *telemetry.ActiveSpan
	market := fmt.Sprintf("d%d", n)
	if tracing {
		root = c.tracer.StartSpan("market", nil)
		cfg.Span, cfg.Trace = root, c.tracer.StartTrace(market)
	}
	t0 := time.Now()
	r, err := core.ClearInteractive(pool, c.bidders, share*w, cfg)
	d := time.Since(t0).Seconds()
	root.End()
	if tracing {
		c.intS[k] = append(c.intS[k], d)
	} else {
		c.plainS[k] = append(c.plainS[k], d)
	}
	c.rec.add("core.phaseD.ClearInteractive", 0, market, t0.UnixNano(), t0.UnixNano()+int64(d*1e9))
	switch {
	case err != nil:
		c.res.op(fmt.Sprintf("phase D market: %v", err))
	case !r.Converged:
		c.res.op(fmt.Sprintf("phase D market did not converge in %d rounds", r.Rounds))
	case r.SuppliedW < share*w*(1-1e-9):
		c.res.op(fmt.Sprintf("phase D market supplied %v W of %v W", r.SuppliedW, share*w))
	default:
		c.res.op("")
		c.intRounds += r.Rounds
		c.res.fact(fmt.Sprintf("core.interactive.rounds.level%d", k), float64(r.Rounds))
		c.res.fact(fmt.Sprintf("price.core.interactive.level%d", k), r.Price)
	}
	return d
}

// setUp builds the pools, the index and the treap from the seed, and
// records how long each took.
func (c *coreRun) setUp() (*corePools, error) {
	start := time.Now()
	p, err := buildCorePools(c.res.Seed, c.sz)
	if err != nil {
		return nil, err
	}
	c.setups = append(c.setups, time.Since(start).Seconds())
	c.indexBuilds = append(c.indexBuilds, p.indexBuildS)
	c.streamBuilds = append(c.streamBuilds, p.streamBuildS)
	return p, nil
}

// openCoreClear sets the workload up.
func openCoreClear(seed int64, traced bool, sz coreSizes) (*coreRun, error) {
	c := &coreRun{res: newResult("core_clear", seed, traced), sz: sz}
	p, err := c.setUp()
	if err != nil {
		return nil, err
	}
	c.p = p
	c.clearS = make([][]float64, len(p.shares))
	c.indexTog, c.streamTog = newToggler(p, len(p.clear)), newToggler(p, len(p.stream))
	if traced {
		c.rec = &recorder{}
		c.tracer = telemetry.NewTracer(1 << 16)
	}
	c.bidders = make([]core.Bidder, sz.interactive)
	for i := range c.bidders {
		c.bidders[i] = p.agents[i].bidder()
	}
	return c, nil
}

// measure lets the phases take turns for seconds more. It first sets up
// once more and drops the product, so that setup_s samples the whole run
// as the other metrics do.
func (c *coreRun) measure(seconds float64) {
	if _, err := c.setUp(); err != nil {
		c.res.fail(fmt.Sprintf("set-up: %v", err))
		return
	}
	runtime.GC() // peak RSS is two sets of pools, not however many the collector had not reached
	for spent := 0.0; spent < seconds || c.turns < checkTurns; {
		c.turns++
		check := c.turns%checkTurns == 0
		spent += c.turnA() + c.turnB(check) + c.turnC(check) + c.turnD()
		if c.turns == checkTurns {
			// Pinned after a fixed number of steps from the seeded pool.
			c.res.fact("price.core.index.turn8", c.indexOut.Price)
			c.res.fact("price.core.stream.turn8", c.streamPrice)
		}
	}
}

func (c *coreRun) close() {}

func (c *coreRun) finish() (*Result, error) {
	res, p := c.res, c.p
	res.op(checkAgainstClear("phase B index", p.clear, c.indexTarget(), c.indexOut.Price))
	res.op(checkAgainstClear("phase C stream", p.stream, p.treap.Target(), c.streamPrice))
	var allClears []float64
	for _, level := range c.clearS {
		allClears = append(allClears, level...)
	}
	if !c.res.Traced {
		res.add(
			Metric{Name: "setup_s", Value: median(c.setups), Unit: "s", N: len(c.setups)},
			Metric{Name: "clears_per_s", Value: float64(len(c.clearS)) / medianSum(c.clearS), Unit: "1/s", N: len(allClears)},
			Metric{Name: "stream_updates_per_s", Value: 1 / median(c.applyS), Unit: "1/s", N: len(c.applyS) * streamBlock},
			Metric{Name: "int_markets_per_s", Value: float64(len(c.plainS)) / medianSum(c.plainS[:]), Unit: "1/s", N: c.turns},
		)
		return res, nil
	}

	// One market at each level, traced and plain.
	intS, plainS := medianSum(c.intS[:]), medianSum(c.plainS[:])
	res.add(
		timing("core.clear_fresh_us", "us", allClears, 1e6),
		timing("core.index_build_ms", "ms", c.indexBuilds, 1e3),
		timing("core.setbid_refresh_us", "us", c.setbidS, 1e6),
		timing("core.clearinto_us", "us", c.clearIntoS, 1e6),
		scalar("core.clearinto_allocs", "count", allocsPer(200, func() { _ = p.index.ClearInto(&c.indexOut, c.indexTarget()) })),
		timing("core.stream_build_ms", "ms", c.streamBuilds, 1e3),
		Metric{Name: "core.stream_apply_ns", Value: median(c.applyS) * 1e9, Unit: "ns", N: len(c.applyS) * streamBlock},
		scalar("core.stream_apply_allocs", "count", allocsPer(2000, func() {
			i, b := c.streamTog.next()
			_, _, _ = p.treap.Apply(core.ParticipantDelta{Index: i, Bid: b})
		})),
		Metric{Name: "core.interactive_ms", Value: intS * 1e3 / float64(len(c.intS)), Unit: "ms", N: c.turns},
		Metric{Name: "core.interactive_rounds", Value: float64(c.intRounds) / float64(c.turns), Unit: "count", N: c.turns},
		scalar("telemetry.trace_overhead_frac.core", "frac", (intS-plainS)/plainS),
	)
	res.add(baselineMetrics(p, c.sz.baseline)...)
	res.add(telemetryMicro()...)
	res.Spans = c.rec.spans
	return res, nil
}

// baselineMetrics times the centralized baselines the simulator calls
// (OPT by dual bisection, EQL) and the agent's think time.
func baselineMetrics(p *corePools, n int) []Metric {
	ps := make([]*core.Participant, n)
	for i := range ps {
		c := *p.stream[i]
		model := p.agents[i].bidder().Model
		cores := c.Cores
		c.Cost = func(d float64) float64 { return cores * model.Cost(d/cores) }
		c.MarginalCost = func(d float64) float64 { return model.Marginal(d / cores) }
		ps[i] = &c
	}
	w := 0.0
	for _, q := range ps {
		w += q.MaxReduction() * q.WattsPerCore
	}
	var optS, eqlS []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		_, errOpt := core.SolveOPT(ps, 0.25*w, core.OPTDual)
		t1 := time.Now()
		_, errEql := core.SolveEQL(ps, 0.25*w)
		eqlS = append(eqlS, time.Since(t1).Seconds())
		optS = append(optS, t1.Sub(t0).Seconds())
		if errOpt != nil || errEql != nil {
			panic(fmt.Sprint("baseline solvers reject a valid pool: ", errOpt, errEql))
		}
	}
	bidders := make([]*core.RationalBidder, n)
	for i := range bidders {
		bidders[i] = p.agents[i].bidder()
	}
	var gainS []float64
	for rep := 0; rep < 15; rep++ {
		t0 := time.Now()
		for _, b := range bidders {
			b.RespondBid(0.2)
		}
		gainS = append(gainS, time.Since(t0).Seconds()/float64(n))
	}
	return []Metric{
		timing("core.opt_dual_ms", "ms", optS, 1e3),
		timing("core.eql_us", "us", eqlS, 1e6),
		Metric{Name: "perf.gain_max_ns", Value: median(gainS) * 1e9, Unit: "ns", N: len(gainS) * n},
	}
}

// telemetryMicro times the two telemetry primitives every recorded
// sample goes through.
func telemetryMicro() []Metric {
	const n, reps = 100000, 11
	h := hdr.New()
	series := tsdb.New(0).Series("bench")
	var hdrS, tsdbS []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Record(1e-6 * float64(1+i%1000))
		}
		t1 := time.Now()
		for i := 0; i < n; i++ {
			series.Append(int64(r*n+i), float64(i))
		}
		tsdbS = append(tsdbS, time.Since(t1).Seconds()/n)
		hdrS = append(hdrS, t1.Sub(t0).Seconds()/n)
	}
	return []Metric{
		Metric{Name: "telemetry.hdr_record_ns", Value: median(hdrS) * 1e9, Unit: "ns", N: n * reps},
		Metric{Name: "telemetry.tsdb_append_ns", Value: median(tsdbS) * 1e9, Unit: "ns", N: n * reps},
	}
}
