package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mpr/internal/perf"
	"mpr/internal/telemetry"
)

// Bidder is the user side of the interactive market: given the manager's
// announced price, return an updated bid. Rational users respond with the
// bid that maximizes their net gain (Eqn. (7)); RationalBidder in
// bidding.go implements that strategy.
//
// ClearInteractive may invoke different bidders' RespondBid concurrently
// (never the same bidder twice at once), so a Bidder must not mutate
// state shared with other bidders. The package's bidders (RationalBidder,
// StaticBidder) are read-only during RespondBid and satisfy this.
//
// Every Bidder is called once per round, with one exception: a
// *RationalBidder's response is a pure function of (*Model, Cores, price),
// so for rational bidders whose models are equal the per-core best
// response may be computed once and scaled to each one's Cores — the same
// bid, bit for bit, that its RespondBid returns.
type Bidder interface {
	RespondBid(price float64) Bid
}

// openingPrice is the price the manager announces to open every MPR-INT
// market (q′₀ in Section III-B).
const openingPrice = 0.1

// priceSettled is the MPR-INT stopping rule: the round's cleared price
// moved at most tol, relatively, from the price announced for it.
func priceSettled(announced, cleared, tol float64) bool {
	return math.Abs(cleared-announced) <= tol*math.Max(announced, 1e-12)
}

// Iterate is the MPR-INT price iteration q ← MClr(bids(q)) of Section
// III-B, the one loop behind ClearInteractive and the agentproto manager.
// It opens at openingPrice and, each round, calls ask(round, q, bids,
// span) under a "market_round" child of span; ask overwrites bids[i] for
// every participant i that answered q and leaves the rest alone, so a
// participant that did not answer clears on its last bid — the paper's
// proceed-with-last-information rule. The bids start as ps[i].Bid (the
// last known ones), which are validated; ps is never mutated. Every slot
// is then set into one MarketIndex and cleared, the round's
// "market_round" event (announced price in Value) goes to emit, and the
// loop stops once the cleared price settles within tol of the announced
// one (Converged) or after maxRounds rounds.
//
// A non-positive target asks nobody: it returns Clear's nothing-to-buy
// result (TargetW echoed, every reduction 0) with Rounds 0. An error from
// ask or the clear ends the round's span and is returned before the
// round's event.
func Iterate(ps []*Participant, targetW float64, maxRounds int, tol float64,
	span *telemetry.ActiveSpan, emit func(telemetry.Event),
	ask func(round int, q float64, bids []Bid, span *telemetry.ActiveSpan) error) (*ClearingResult, error) {
	if targetW <= 0 {
		res := noReduction(len(ps), targetW)
		res.Rounds = 0
		return res, nil
	}
	if !(targetW > 0) { // NaN: refused before anyone is asked
		return nil, ErrNaNTarget
	}
	if len(ps) == 0 {
		return nil, ErrNoParticipants
	}
	ix, err := NewMarketIndex(ps)
	if err != nil {
		return nil, err
	}
	bids := make([]Bid, len(ps))
	copy(bids, ix.bids) // the validated ps[i].Bid

	q := openingPrice
	res := &ClearingResult{}
	for round := 1; round <= maxRounds; round++ {
		// Span handles are nil-safe, so an uninstrumented market records
		// and allocates nothing here.
		roundSpan := span.StartChild("market_round")
		err := ask(round, q, bids, roundSpan)
		for i := 0; err == nil && i < len(bids); i++ {
			err = ix.SetBid(i, bids[i])
		}
		if err == nil {
			err = ix.ClearInto(res, targetW)
		}
		if err != nil {
			roundSpan.End()
			return nil, err
		}
		res.Rounds = round
		emit(telemetry.Event{Name: "market_round", Round: round,
			Price: res.Price, TargetW: targetW, SuppliedW: res.SuppliedW, Value: q})
		roundSpan.End()
		res.Converged = priceSettled(q, res.Price, tol)
		if res.Converged {
			break
		}
		q = res.Price
	}
	return res, nil
}

// InteractiveConfig parameterizes the MPR-INT market loop.
type InteractiveConfig struct {
	// MaxRounds bounds the number of manager↔user exchanges; the paper
	// suggests a timeout (e.g. 30 s) after which the last price stands.
	// Default 100.
	MaxRounds int
	// Tolerance is the relative price change below which the market is
	// considered converged (Nash equilibrium reached). Default 1e-6.
	Tolerance float64
	// Trace, when set, receives one "market_round" event per manager↔user
	// exchange (round number, announced price, cleared price, aggregate
	// supply), stamped with the handle's run ID — the convergence
	// trajectory of Figs. 9-11. Nil (the default) emits nothing.
	Trace *telemetry.Trace
	// Span, when set, is the enclosing trace span: each exchange records
	// a "market_round" child containing a "respond_bids" grandchild, so
	// span views show where market wall-time goes. Nil records nothing.
	Span *telemetry.ActiveSpan
}

func (c *InteractiveConfig) normalize() {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 100
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-6
	}
}

// parallelBidFloor is the pool size below which the rebid fan-out stays
// sequential: starting and waking the workers costs more than the
// responses they would take over. Re-measured on a 2-vCPU box once equal
// models share a solve (it was 64): a pool of all-distinct rational
// bidders, ~170 ns each, breaks even against two workers near 512
// (256: 39 µs sequential, 50 µs fanned out; 768: 135 against 102), and a
// pool sharing eight models, ~12 ns a bidder, is faster sequential at
// every size tried up to 10,000. The simulator's markets (a few hundred
// bidders over a handful of models) therefore stay sequential.
const parallelBidFloor = 512

// respondBids collects every bidder's response to the announced price
// into out, fanning out across a bounded worker pool when the pool is
// large enough to pay for it. Workers claim fixed-size chunks of the
// bidder range and write results by index, so the output is
// deterministic and bit-identical to the sequential loop.
//
// Each worker (the sequential loop is one worker) answers through its own
// bestResponses, so rational bidders with equal cost models cost one
// golden-section search per worker per round, not one per bidder.
func respondBids(bidders []Bidder, price float64, out []Bid, workers int) {
	n := len(bidders)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelBidFloor {
		var br bestResponses
		for i, b := range bidders {
			out[i] = br.respond(b, price)
		}
		return
	}
	const chunk = 32
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var br bestResponses
			for {
				start := int(next.Add(chunk)) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					out[i] = br.respond(bidders[i], price)
				}
			}
		}()
	}
	wg.Wait()
}

// bestResponses is one worker's memory of the per-core best responses it
// has solved at the one price of a round, keyed by cost-model value. It
// lives on the worker's stack for one respondBids call — nothing is
// shared between workers or kept across rounds. (A memo that outlives
// the call is ROADMAP's "run-scoped memo" item, deliberately not here.)
type bestResponses struct {
	n int
	// alpha[i] is models[i].Alpha, compared first: scanning 16 floats
	// costs an all-distinct pool ~1 % a round, 16 struct compares 12 %.
	alpha  [bestResponseSlots]float64
	models [bestResponseSlots]perf.CostModel
	dStar  [bestResponseSlots]float64
}

// bestResponseSlots bounds the models one worker remembers, and so the
// scan a pool of all-distinct models pays per bidder; models met once the
// slots are full are solved per bidder.
const bestResponseSlots = 16

// respond returns b.RespondBid(price). A *RationalBidder whose model
// equals one this worker already solved reuses that per-core δ*; any
// other Bidder is simply called.
func (c *bestResponses) respond(b Bidder, price float64) Bid {
	r, ok := b.(*RationalBidder)
	if !ok {
		return b.RespondBid(price)
	}
	m := r.Model
	for i, a := range c.alpha[:c.n] {
		if a == m.Alpha && c.models[i] == *m {
			return r.bidFor(price, c.dStar[i])
		}
	}
	d := m.GainMaximizingReduction(price)
	if c.n < bestResponseSlots {
		c.alpha[c.n], c.models[c.n], c.dStar[c.n] = m.Alpha, *m, d
		c.n++
	}
	return r.bidFor(price, d)
}

// ClearInteractive runs the MPR-INT market: the manager announces a price,
// every user responds with its gain-maximizing bid, the manager re-clears
// MClr with the fresh bids, and the exchange repeats until the clearing
// price stabilizes (guaranteed for the paper's supply function when users
// bid rationally against convex costs) or MaxRounds is exhausted. The loop
// is Iterate's; every bidder answers every round.
//
// ps[i].Bid seeds the market's index and must be valid; bidders[i]
// replaces it from round 1 on, in Iterate's working set, so the caller's
// participants are never mutated. Rebidding fans out across GOMAXPROCS
// goroutines once the pool reaches parallelBidFloor (bit-identical to
// sequential). The returned result's Rounds counts the exchanges and
// Converged reports whether the price stabilized within the budget.
func ClearInteractive(ps []*Participant, bidders []Bidder, targetW float64, cfg InteractiveConfig) (*ClearingResult, error) {
	if len(ps) != len(bidders) {
		return nil, fmt.Errorf("core: %d participants but %d bidders", len(ps), len(bidders))
	}
	cfg.normalize()
	return Iterate(ps, targetW, cfg.MaxRounds, cfg.Tolerance, cfg.Span, cfg.Trace.Emit,
		func(_ int, q float64, bids []Bid, span *telemetry.ActiveSpan) error {
			bidSpan := span.StartChild("respond_bids")
			respondBids(bidders, q, bids, 0)
			bidSpan.End()
			return nil
		})
}
