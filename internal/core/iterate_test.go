package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mpr/internal/perf"
	"mpr/internal/telemetry"
)

// oracleRound is one round of the reference loop: the announced price,
// and the clear's price and supplied watts.
type oracleRound struct{ announced, cleared, supplied float64 }

// referenceInteractive is ClearInteractive's loop as it stood before
// Iterate took it over — working copies of the participants, and an index
// built from round 1's bids rather than from ps's — kept as the oracle
// Iterate must match bit for bit, round by round. Its rebids fan out
// across exactly workers goroutines.
func referenceInteractive(ps []*Participant, bidders []Bidder, targetW float64, maxRounds int, tol float64, workers int) (*ClearingResult, []oracleRound, error) {
	work := make([]Participant, len(ps))
	workPtrs := make([]*Participant, len(ps))
	for i, p := range ps {
		work[i] = *p
		workPtrs[i] = &work[i]
	}
	bids := make([]Bid, len(ps))
	q := 0.1
	var ix *MarketIndex
	var trail []oracleRound
	res := &ClearingResult{}
	classes := newBidClasses(bidders)
	for round := 1; round <= maxRounds; round++ {
		classes.respond(q, bids, workers)
		if ix == nil {
			for i := range workPtrs {
				workPtrs[i].Bid = bids[i]
			}
			var err error
			if ix, err = NewMarketIndex(workPtrs); err != nil {
				return nil, nil, err
			}
		} else {
			for i := range bids {
				if err := ix.SetBid(i, bids[i]); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := ix.ClearInto(res, targetW); err != nil {
			return nil, nil, err
		}
		res.Rounds = round
		trail = append(trail, oracleRound{q, res.Price, res.SuppliedW})
		if math.Abs(res.Price-q) <= tol*math.Max(q, 1e-12) {
			res.Converged = true
			return res, trail, nil
		}
		q = res.Price
	}
	res.Converged = false
	return res, trail, nil
}

// iteratePool draws n seeded jobs answering as rational bidders, static
// cooperative bidders, or a coin-flip mix of both. Each participant carries
// a stale random bid, which every bidder replaces in round 1.
func iteratePool(rng *rand.Rand, n int, kind string) ([]*Participant, []Bidder, float64) {
	profs := perf.CPUProfiles()
	ps := make([]*Participant, n)
	bs := make([]Bidder, n)
	var maxW float64
	for i := range ps {
		prof := profs[rng.Intn(len(profs))]
		cores := float64(1 + rng.Intn(64))
		model := perf.NewCostModel(prof, 0.5+2*rng.Float64(), perf.CostShape(rng.Intn(2)))
		ps[i] = &Participant{
			JobID: fmt.Sprintf("j%d", i), Cores: cores, MaxFrac: prof.MaxReduction(),
			WattsPerCore: 50 + 200*rng.Float64(),
			Bid:          Bid{Delta: cores * prof.MaxReduction() * rng.Float64(), B: rng.Float64()},
		}
		maxW += ps[i].WattsPerCore * cores * prof.MaxReduction()
		if kind == "static" || (kind == "mixed" && rng.Intn(2) == 0) {
			bs[i] = &StaticBidder{Fixed: CooperativeBid(cores, model)}
		} else {
			bs[i] = &RationalBidder{Cores: cores, Model: model}
		}
	}
	return ps, bs, maxW
}

// askAll is ClearInteractive's ask without its span: every bidder answers
// every round through one set of bid classes. Tests hand it to Iterate to
// run ClearInteractive's market on another round budget.
func askAll(bidders []Bidder) func(int, float64, []Bid, *telemetry.ActiveSpan) error {
	classes := newBidClasses(bidders)
	return func(_ int, q float64, bids []Bid, _ *telemetry.ActiveSpan) error {
		classes.respond(q, bids, 0)
		return nil
	}
}

// roundSpans reads back the "market_round" children of market from the
// tracer, in round order: each one's announced price, cleared price and
// supplied watts, parsed from its attributes. A round span without them
// fails the test.
func roundSpans(t *testing.T, tracer *telemetry.Tracer, market uint64) []oracleRound {
	t.Helper()
	var rounds []oracleRound
	for _, s := range tracer.Spans() {
		if s.Name != "market_round" || s.Parent != market {
			continue
		}
		attr := map[string]float64{}
		for _, a := range s.Attrs {
			v, err := strconv.ParseFloat(a.Value, 64)
			if err != nil {
				t.Fatalf("round span %d: attribute %s=%q: %v", s.ID, a.Key, a.Value, err)
			}
			attr[a.Key] = v
		}
		if len(attr) != 3 {
			t.Fatalf("round span %d attributes %+v, want announced, price and supplied_w", s.ID, s.Attrs)
		}
		rounds = append(rounds, oracleRound{attr["announced"], attr["price"], attr["supplied_w"]})
	}
	return rounds
}

// TestIterateMatchesReferenceLoop: ClearInteractive on Iterate announces
// and clears every round at the reference loop's prices and ends on its
// reductions, bit for bit — rational, static and mixed pools, feasible and
// infeasible targets, a round budget that runs out (askAll handed to
// Iterate with 3 rounds), and a reference with one and with several rebid
// workers on a pool large enough to fan out.
func TestIterateMatchesReferenceLoop(t *testing.T) {
	exhausted := 0
	for _, kind := range []string{"rational", "static", "mixed"} {
		for _, n := range []int{60, parallelBidFloor + 40} {
			for _, frac := range []float64{0.3, 1.5} {
				for _, c := range []struct {
					maxRounds int
					tol       float64
					workers   int
				}{{interactiveMaxRounds, interactiveTolerance, 1}, {interactiveMaxRounds, interactiveTolerance, 3}, {3, 1e-12, 1}} {
					name := fmt.Sprintf("%s/n=%d/frac=%v/workers=%d/max=%d", kind, n, frac, c.workers, c.maxRounds)
					ps, bs, maxW := iteratePool(rand.New(rand.NewSource(int64(n))), n, kind)
					want, trail, err := referenceInteractive(ps, bs, frac*maxW, c.maxRounds, c.tol, c.workers)
					if err != nil {
						t.Fatal(err)
					}
					tracer := telemetry.NewTracer(256)
					market := tracer.StartSpan("market", nil)
					var got *ClearingResult
					if c.maxRounds == interactiveMaxRounds {
						got, err = ClearInteractive(ps, bs, frac*maxW, InteractiveConfig{Span: market})
					} else {
						got, err = Iterate(ps, frac*maxW, c.maxRounds, c.tol, market, askAll(bs))
					}
					market.End()
					if err != nil {
						t.Fatal(err)
					}
					if got.Rounds != want.Rounds || got.Converged != want.Converged || got.Feasible != want.Feasible {
						t.Fatalf("%s: rounds %d converged %v feasible %v, reference %d %v %v",
							name, got.Rounds, got.Converged, got.Feasible, want.Rounds, want.Converged, want.Feasible)
					}
					if !got.Converged {
						exhausted++
					}
					rounds := roundSpans(t, tracer, market.ID())
					if len(rounds) != len(trail) {
						t.Fatalf("%s: %d round spans, reference ran %d rounds", name, len(rounds), len(trail))
					}
					for r, e := range rounds {
						w := trail[r]
						if !sameBits(e.announced, w.announced) || !sameBits(e.cleared, w.cleared) || !sameBits(e.supplied, w.supplied) {
							t.Fatalf("%s: round %d span %+v, reference %+v", name, r+1, e, w)
						}
					}
					for _, pair := range [][2]float64{{got.Price, want.Price}, {got.SuppliedW, want.SuppliedW}, {got.PayoutRate, want.PayoutRate}} {
						if !sameBits(pair[0], pair[1]) {
							t.Fatalf("%s: result %+v, reference %+v", name, got, want)
						}
					}
					for i := range want.Reductions {
						if !sameBits(got.Reductions[i], want.Reductions[i]) {
							t.Fatalf("%s: reduction[%d] %v, reference %v", name, i, got.Reductions[i], want.Reductions[i])
						}
					}
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no case ran out of rounds")
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestIterateSubsetAnswers: when only some participants answer a round,
// the rest clear on their last bid — each round's price and supply are
// Clear's over the merged bids, bit for bit, and ask always sees the
// last known bids.
func TestIterateSubsetAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomPool(rng, 200)
	const targetW = 40000
	before := make([]Bid, len(ps))
	for i, p := range ps {
		before[i] = p.Bid
	}
	last := append([]Bid(nil), before...)
	merged := make([]*Participant, len(ps))
	for i, p := range ps {
		c := *p
		merged[i] = &c
	}
	var wants []*ClearingResult // Clear over each round's merged bids
	tracer := telemetry.NewTracer(64)
	market := tracer.StartSpan("market", nil)
	res, err := Iterate(ps, targetW, 12, 1e-9, market,
		func(round int, q float64, bids []Bid, _ *telemetry.ActiveSpan) error {
			for i := range bids {
				if bids[i] != last[i] {
					t.Fatalf("round %d: slot %d holds %+v, its last bid is %+v", round, i, bids[i], last[i])
				}
				if (i+round)%3 == 0 {
					last[i] = Bid{Delta: last[i].Delta, B: last[i].B * (0.5 + q)}
					bids[i] = last[i]
				}
				merged[i].Bid = last[i]
			}
			want, err := Clear(merged, targetW)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, want)
			return nil
		})
	market.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) != res.Rounds || res.Rounds < 3 {
		t.Fatalf("asked %d times over %d rounds, want ≥ 3 and equal", len(wants), res.Rounds)
	}
	rounds := roundSpans(t, tracer, market.ID())
	if len(rounds) != res.Rounds {
		t.Fatalf("%d round spans over %d rounds", len(rounds), res.Rounds)
	}
	for r, e := range rounds {
		if want := wants[r]; !sameBits(e.cleared, want.Price) || !sameBits(e.supplied, want.SuppliedW) {
			t.Fatalf("round %d cleared %v (%v W), Clear over the merged bids %v (%v W)",
				r+1, e.cleared, e.supplied, want.Price, want.SuppliedW)
		}
	}
	for i, p := range ps {
		if p.Bid != before[i] {
			t.Fatalf("participant %d mutated: %+v -> %+v", i, before[i], p.Bid)
		}
	}
}

// TestIterateAskErrorEndsSpans: an ask that fails in round k gets its error
// returned, every span the market opened is ended, and round k's span
// carries no clearing attributes — and the same for a bid the index
// refuses.
func TestIterateAskErrorEndsSpans(t *testing.T) {
	errAsk := errors.New("fleet gone")
	ps := randomPool(rand.New(rand.NewSource(5)), 50)
	const k = 3
	for name, fail := range map[string]func(bids []Bid) error{
		"ask error":   func([]Bid) error { return errAsk },
		"refused bid": func(bids []Bid) error { bids[7] = Bid{Delta: math.NaN()}; return nil },
	} {
		tracer := telemetry.NewTracer(64)
		market := tracer.StartSpan("market", nil)
		_, err := Iterate(ps, poolMaxW(ps)/2, 100, 0, market,
			func(round int, q float64, bids []Bid, span *telemetry.ActiveSpan) error {
				bidSpan := span.StartChild("respond_bids")
				defer bidSpan.End()
				for i := range bids {
					bids[i].B *= 1 + q // keeps the price moving
				}
				if round == k {
					return fail(bids)
				}
				return nil
			})
		market.End()
		if err == nil || (name == "ask error" && err != errAsk) {
			t.Fatalf("%s: err = %v", name, err)
		}
		round := 0
		for _, s := range tracer.Spans() {
			if s.Name != "market_round" {
				continue
			}
			if round++; (round < k) != (len(s.Attrs) == 3) || (round == k) != (len(s.Attrs) == 0) {
				t.Fatalf("%s: round %d span attributes %+v; rounds before %d clear, round %d does not", name, round, s.Attrs, k, k)
			}
		}
		// Span IDs are handed out at start and a span is recorded at End,
		// so a span left open is a gap in 1…len.
		spans := tracer.Spans()
		seen := map[uint64]bool{}
		count := map[string]int{}
		for _, s := range spans {
			seen[s.ID] = true
			count[s.Name]++
		}
		for id := uint64(1); id <= uint64(len(spans)); id++ {
			if !seen[id] {
				t.Fatalf("%s: span %d was never ended (%d recorded)", name, id, len(spans))
			}
		}
		if count["market_round"] != k || count["respond_bids"] != k {
			t.Fatalf("%s: spans %v, want %d market_round and respond_bids", name, count, k)
		}
	}
}

// TestIterateNonPositiveTargetAsksNobody: nothing to buy is no round.
func TestIterateNonPositiveTargetAsksNobody(t *testing.T) {
	ps := randomPool(rand.New(rand.NewSource(9)), 10)
	for _, target := range []float64{0, -500, math.Inf(-1)} {
		tracer := telemetry.NewTracer(16)
		res, err := Iterate(ps, target, 100, 1e-6, tracer.StartSpan("market", nil),
			func(int, float64, []Bid, *telemetry.ActiveSpan) error {
				t.Fatal("asked a price")
				return nil
			})
		if spans := tracer.Spans(); len(spans) != 0 {
			t.Fatalf("target %v: recorded %+v", target, spans)
		}
		if err != nil || res.Rounds != 0 || !res.Converged || !res.Feasible || res.Price != 0 || len(res.Reductions) != len(ps) {
			t.Fatalf("target %v: %+v, %v", target, res, err)
		}
		if res.TargetW != target {
			t.Fatalf("target %v: TargetW = %v, want the request echoed", target, res.TargetW)
		}
		for i, d := range res.Reductions {
			if d != 0 {
				t.Fatalf("target %v: reduction[%d] = %v", target, i, d)
			}
		}
	}
}

// flipBidder answers a low price with a reluctant bid and a high one with
// a willing bid, so a market it dominates swings between two prices and
// never settles.
type flipBidder struct{ delta float64 }

func (f flipBidder) RespondBid(price float64) Bid {
	if price < 1 {
		return Bid{Delta: f.delta, B: f.delta}
	}
	return Bid{Delta: f.delta, B: f.delta / 8}
}

// TestClearInteractiveTraceInvariant: a span only watches the market.
// Without cfg.Span, Iterate solves a round for its price alone and clears
// in full only the round that ends the market; every field of the result
// is the same, bit for bit, as with a span — over shared, equal and
// distinct models, NaN α, static and custom bidders, pools on both sides
// of parallelBidFloor, feasible and infeasible targets, and a market that
// ends at interactiveMaxRounds.
func TestClearInteractiveTraceInvariant(t *testing.T) {
	profs := perf.CPUProfiles()
	shared := perf.NewCostModel(profs[0], 1.5, perf.CostLinear)
	nan := &perf.CostModel{Profile: profs[1], Alpha: math.NaN(), Shape: perf.CostLinear}
	pool := func(rng *rand.Rand, n int) ([]*Participant, []Bidder, float64) {
		ps := make([]*Participant, n)
		bs := make([]Bidder, n)
		var maxW float64
		for i := range ps {
			prof := profs[rng.Intn(len(profs))]
			cores := float64(1 + rng.Intn(64))
			switch i % 7 {
			case 0:
				bs[i] = &RationalBidder{Cores: cores, Model: shared}
			case 1, 2:
				bs[i] = &RationalBidder{Cores: cores, Model: perf.NewCostModel(prof, 2, perf.CostShape(i%7-1))}
			case 3:
				bs[i] = &RationalBidder{Cores: cores, Model: perf.NewCostModel(prof, 1+rng.Float64(), perf.CostLinear)}
			case 4:
				bs[i] = &RationalBidder{Cores: cores, Model: nan}
			case 5:
				bs[i] = &StaticBidder{Fixed: Bid{Delta: cores * prof.MaxReduction(), B: rng.Float64()}}
			case 6:
				bs[i] = &countingBidder{bid: Bid{Delta: cores * prof.MaxReduction(), B: rng.Float64()}}
			}
			ps[i] = &Participant{
				JobID: fmt.Sprintf("j%d", i), Cores: cores, MaxFrac: prof.MaxReduction(),
				WattsPerCore: 50 + 200*rng.Float64(),
				Bid:          Bid{Delta: cores * prof.MaxReduction() * rng.Float64(), B: rng.Float64()},
			}
			maxW += ps[i].WattsPerCore * cores * prof.MaxReduction()
		}
		return ps, bs, maxW
	}
	type market struct {
		name    string
		ps      []*Participant
		bs      []Bidder
		targetW float64
	}
	var markets []market
	for _, n := range []int{40, parallelBidFloor + 40} {
		ps, bs, maxW := pool(rand.New(rand.NewSource(int64(n))), n)
		for _, frac := range []float64{0.3, 1.5} {
			markets = append(markets, market{fmt.Sprintf("n=%d/frac=%v", n, frac), ps, bs, frac * maxW})
		}
	}
	// One flipping job and two that never activate: the price swings
	// between 2 and 0.25 until the round budget runs out.
	markets = append(markets, market{"flip",
		[]*Participant{{JobID: "flip", Cores: 10, WattsPerCore: 1}, {JobID: "s1", Cores: 1, WattsPerCore: 1}, {JobID: "s2", Cores: 1, WattsPerCore: 1}},
		[]Bidder{flipBidder{delta: 10}, &StaticBidder{Fixed: Bid{Delta: 1, B: 1e6}}, &StaticBidder{Fixed: Bid{Delta: 1, B: 1e6}}},
		5})
	exhausted := 0
	for _, m := range markets {
		tracer := telemetry.NewTracer(1 << 12)
		market := tracer.StartSpan("market", nil)
		traced, errT := ClearInteractive(m.ps, m.bs, m.targetW, InteractiveConfig{Span: market})
		market.End()
		plain, errP := ClearInteractive(m.ps, m.bs, m.targetW, InteractiveConfig{})
		if errT != nil || errP != nil {
			t.Fatalf("%s: errors %v (traced) and %v (plain)", m.name, errT, errP)
		}
		if n := len(roundSpans(t, tracer, market.ID())); n != traced.Rounds {
			t.Fatalf("%s: %d round spans for %d rounds", m.name, n, traced.Rounds)
		}
		if traced.Rounds != plain.Rounds || traced.Converged != plain.Converged || traced.Feasible != plain.Feasible ||
			!sameBits(traced.Price, plain.Price) || !sameBits(traced.SuppliedW, plain.SuppliedW) ||
			!sameBits(traced.TargetW, plain.TargetW) || !sameBits(traced.PayoutRate, plain.PayoutRate) ||
			len(traced.Reductions) != len(plain.Reductions) {
			t.Fatalf("%s: traced %+v, plain %+v", m.name, traced, plain)
		}
		for i := range traced.Reductions {
			if !sameBits(traced.Reductions[i], plain.Reductions[i]) {
				t.Fatalf("%s: reduction[%d] %v traced, %v plain", m.name, i, traced.Reductions[i], plain.Reductions[i])
			}
		}
		if !plain.Converged {
			exhausted++
			if plain.Rounds != interactiveMaxRounds {
				t.Fatalf("%s: unsettled after %d rounds, want %d", m.name, plain.Rounds, interactiveMaxRounds)
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no market ran out of rounds")
	}
}

// TestClearInteractiveRoundSpans: with cfg.Span, every "market_round"
// span records its round in attributes that parse back bit for bit:
// price is that round's cleared price (the reference loop's), announced
// is the previous round's price (openingPrice in round 1), and the last
// round's price and supply are the result's.
func TestClearInteractiveRoundSpans(t *testing.T) {
	for _, kind := range []string{"rational", "static", "mixed"} {
		for _, frac := range []float64{0.3, 1.5} {
			name := fmt.Sprintf("%s/frac=%v", kind, frac)
			ps, bs, maxW := iteratePool(rand.New(rand.NewSource(11)), 120, kind)
			_, trail, err := referenceInteractive(ps, bs, frac*maxW, interactiveMaxRounds, interactiveTolerance, 1)
			if err != nil {
				t.Fatal(err)
			}
			tracer := telemetry.NewTracer(1 << 10)
			market := tracer.StartSpan("market", nil)
			res, err := ClearInteractive(ps, bs, frac*maxW, InteractiveConfig{Span: market})
			market.End()
			if err != nil {
				t.Fatal(err)
			}
			rounds := roundSpans(t, tracer, market.ID())
			if len(rounds) != res.Rounds || len(rounds) != len(trail) {
				t.Fatalf("%s: %d round spans, %d rounds, reference %d", name, len(rounds), res.Rounds, len(trail))
			}
			announced := openingPrice
			for r, e := range rounds {
				if math.Float64bits(e.cleared) != math.Float64bits(trail[r].cleared) {
					t.Fatalf("%s: round %d price %v, cleared %v", name, r+1, e.cleared, trail[r].cleared)
				}
				if math.Float64bits(e.announced) != math.Float64bits(announced) {
					t.Fatalf("%s: round %d announced %v, previous price %v", name, r+1, e.announced, announced)
				}
				announced = e.cleared
			}
			if end := rounds[len(rounds)-1]; !sameBits(end.cleared, res.Price) || !sameBits(end.supplied, res.SuppliedW) {
				t.Fatalf("%s: last round %+v, result price %v supply %v", name, end, res.Price, res.SuppliedW)
			}
		}
	}
}

// TestIterateRefusesNoRounds: a market allowed no round cannot clear, and
// says so instead of returning a result without reductions.
func TestIterateRefusesNoRounds(t *testing.T) {
	ps := randomPool(rand.New(rand.NewSource(9)), 10)
	for _, maxRounds := range []int{0, -1} {
		res, err := Iterate(ps, poolMaxW(ps)/2, maxRounds, 1e-6, nil,
			func(int, float64, []Bid, *telemetry.ActiveSpan) error {
				t.Fatal("asked a price")
				return nil
			})
		if err == nil || res != nil {
			t.Fatalf("maxRounds %d: %+v, %v; want an error", maxRounds, res, err)
		}
	}
}
