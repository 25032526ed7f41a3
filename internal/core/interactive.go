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
// A nil emit says that nothing reads a round's supply: a round that does
// not end the market then only solves the index for its price, and the
// round that ends it, settled or the last of maxRounds, clears in full.
// The result is the same, bit for bit, as with an emit.
//
// A non-positive target asks nobody: it returns Clear's nothing-to-buy
// result (TargetW echoed, every reduction 0) with Rounds 0. A maxRounds
// below 1 is an error. An error from ask or the clear ends the round's
// span and is returned before the round's event.
func Iterate(ps []*Participant, targetW float64, maxRounds int, tol float64,
	span *telemetry.ActiveSpan, emit func(telemetry.Event),
	ask func(round int, q float64, bids []Bid, span *telemetry.ActiveSpan) error) (*ClearingResult, error) {
	if maxRounds < 1 {
		return nil, fmt.Errorf("core: an interactive market needs at least one round, got %d", maxRounds)
	}
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
	for round := 1; ; round++ {
		// Span handles are nil-safe, so an uninstrumented market records
		// and allocates nothing here.
		roundSpan := span.StartChild("market_round")
		err := ask(round, q, bids, roundSpan)
		for i := 0; err == nil && i < len(bids); i++ {
			err = ix.SetBid(i, bids[i])
		}
		var price float64
		last := round == maxRounds
		if err == nil && emit == nil {
			ix.Refresh()
			price, _ = ix.minPrice(targetW)
			last = last || priceSettled(q, price, tol)
		}
		if err == nil && (emit != nil || last) {
			err = ix.ClearInto(res, targetW)
			price = res.Price
		}
		if err != nil {
			roundSpan.End()
			return nil, err
		}
		if emit != nil {
			emit(telemetry.Event{Name: "market_round", Round: round,
				Price: price, TargetW: targetW, SuppliedW: res.SuppliedW, Value: q})
		}
		roundSpan.End()
		if settled := priceSettled(q, price, tol); settled || last {
			res.Rounds, res.Converged = round, settled
			return res, nil
		}
		q = price
	}
}

// InteractiveConfig parameterizes the MPR-INT market loop.
type InteractiveConfig struct {
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

// ClearInteractive stops after interactiveMaxRounds exchanges (the paper's
// timeout, after which the last price stands) or once an exchange moves
// the price by at most interactiveTolerance, relatively (Nash equilibrium).
const (
	interactiveMaxRounds = 100
	interactiveTolerance = 1e-6
)

// parallelBidFloor is the pool size below which the rebid fan-out stays
// sequential: starting and waking the workers costs more than the
// responses they would take over. Each round solves its bid classes'
// best responses before the fan-out, so what the workers share out is a
// bidFor of a few ns for every classed bidder and a full solve (~170 ns
// for a rational bidder on a 2-vCPU box) for every bidder that answers for
// itself. A pool of all-distinct rational bidders, past the classes,
// breaks even against two workers near 512 (256: 39 µs sequential, 50 µs
// fanned out; 768: 135 against 102); a pool sharing a handful of models
// is faster sequential at every size tried up to 10,000. The simulator's
// markets (a few hundred bidders over a handful of models) therefore
// stay sequential.
const parallelBidFloor = 512

// bidClasses is one ClearInteractive call's split of its bidders: the
// *RationalBidders grouped by cost-model value into at most
// bestResponseSlots classes, and everyone else — other Bidders, rational
// bidders met once the classes are full, and models that equal nothing,
// themselves included (NaN α) — answering for themselves. It is built once
// per call and read-only while a round's workers fill the bids.
type bidClasses struct {
	bidders []Bidder
	// class[i] is bidders[i]'s class, or -1 when it answers for itself.
	class  []int8
	n      int
	models [bestResponseSlots]perf.CostModel
	// dStar[k] is class k's per-core best response at the round's price.
	dStar [bestResponseSlots]float64
}

// bestResponseSlots bounds the classes of one call; with the classes
// compared per bidder once per call, not per round, it bounds that
// one-time scan.
const bestResponseSlots = 16

// newBidClasses sorts bidders into classes by cost-model value.
func newBidClasses(bidders []Bidder) *bidClasses {
	c := &bidClasses{bidders: bidders, class: make([]int8, len(bidders))}
	for i, b := range bidders {
		c.class[i] = -1
		r, ok := b.(*RationalBidder)
		if !ok || *r.Model != *r.Model {
			continue
		}
		k := 0
		for k < c.n && c.models[k] != *r.Model {
			k++
		}
		if k == bestResponseSlots {
			continue
		}
		if k == c.n {
			c.models[k] = *r.Model
			c.n++
		}
		c.class[i] = int8(k)
	}
	return c
}

// respond collects every bidder's response to the announced price into
// out: each class's δ* is solved once, and the bids are filled across a
// bounded worker pool when the pool is large enough to pay for it.
// Workers claim fixed-size chunks of the bidder range and write results by
// index, so the output is deterministic and bit-identical to the
// sequential loop — and every bid to the bidder's own RespondBid, since a
// rational bidder's response is a pure function of (model value, Cores,
// price).
func (c *bidClasses) respond(price float64, out []Bid, workers int) {
	for k := range c.n {
		c.dStar[k] = c.models[k].GainMaximizingReduction(price)
	}
	n := len(c.bidders)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelBidFloor {
		c.fill(price, out, 0, n)
		return
	}
	const chunk = 32
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(chunk)) - chunk
				if start >= n {
					return
				}
				c.fill(price, out, start, min(start+chunk, n))
			}
		}()
	}
	wg.Wait()
}

// fill answers price for bidders start to end, once respond has solved
// the classes.
func (c *bidClasses) fill(price float64, out []Bid, start, end int) {
	for i := start; i < end; i++ {
		if k := c.class[i]; k >= 0 {
			out[i] = c.bidders[i].(*RationalBidder).bidFor(price, c.dStar[k])
		} else {
			out[i] = c.bidders[i].RespondBid(price)
		}
	}
}

// ClearInteractive runs the MPR-INT market: the manager announces a price,
// every user responds with its gain-maximizing bid, the manager re-clears
// MClr with the fresh bids, and the exchange repeats until the clearing
// price stabilizes (guaranteed for the paper's supply function when users
// bid rationally against convex costs) or interactiveMaxRounds exchanges
// pass. The loop is Iterate's; every bidder answers every round.
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
	// Only a trace reads a round's supply; without one Iterate clears
	// in full only the round that ends the market.
	var emit func(telemetry.Event)
	if cfg.Trace != nil {
		emit = cfg.Trace.Emit
	}
	classes := newBidClasses(bidders)
	return Iterate(ps, targetW, interactiveMaxRounds, interactiveTolerance, cfg.Span, emit,
		func(_ int, q float64, bids []Bid, span *telemetry.ActiveSpan) error {
			bidSpan := span.StartChild("respond_bids")
			classes.respond(q, bids, 0)
			bidSpan.End()
			return nil
		})
}
