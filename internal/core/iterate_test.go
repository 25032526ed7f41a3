package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
func referenceInteractive(ps []*Participant, bidders []Bidder, targetW float64, cfg InteractiveConfig, workers int) (*ClearingResult, []oracleRound, error) {
	cfg.normalize()
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
	for round := 1; round <= cfg.MaxRounds; round++ {
		respondBids(bidders, q, bids, workers)
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
		if math.Abs(res.Price-q) <= cfg.Tolerance*math.Max(q, 1e-12) {
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

// TestIterateMatchesReferenceLoop: ClearInteractive on Iterate announces
// and clears every round at the reference loop's prices and ends on its
// reductions, bit for bit — rational, static and mixed pools, feasible and
// infeasible targets, a round budget that runs out, and a reference with
// one and with several rebid workers on a pool large enough to fan out.
func TestIterateMatchesReferenceLoop(t *testing.T) {
	exhausted := 0
	for _, kind := range []string{"rational", "static", "mixed"} {
		for _, n := range []int{60, parallelBidFloor + 40} {
			for _, frac := range []float64{0.3, 1.5} {
				for _, c := range []struct {
					cfg     InteractiveConfig
					workers int
				}{{InteractiveConfig{}, 1}, {InteractiveConfig{}, 3}, {InteractiveConfig{MaxRounds: 3, Tolerance: 1e-12}, 1}} {
					cfg := c.cfg
					name := fmt.Sprintf("%s/n=%d/frac=%v/workers=%d/max=%d", kind, n, frac, c.workers, cfg.MaxRounds)
					ps, bs, maxW := iteratePool(rand.New(rand.NewSource(int64(n))), n, kind)
					want, trail, err := referenceInteractive(ps, bs, frac*maxW, cfg, c.workers)
					if err != nil {
						t.Fatal(err)
					}
					tracer := telemetry.NewTracer(256)
					cfg.Trace = tracer.StartTrace(name)
					got, err := ClearInteractive(ps, bs, frac*maxW, cfg)
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
					var events []telemetry.Event
					for _, e := range tracer.Events() {
						if e.Name == "market_round" {
							events = append(events, e)
						}
					}
					if len(events) != len(trail) {
						t.Fatalf("%s: %d round events, reference ran %d rounds", name, len(events), len(trail))
					}
					for r, e := range events {
						w := trail[r]
						if e.Round != r+1 || e.Trace != name || !sameBits(e.Value, w.announced) ||
							!sameBits(e.Price, w.cleared) || !sameBits(e.SuppliedW, w.supplied) {
							t.Fatalf("%s: round %d event %+v, reference %+v", name, r+1, e, w)
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
	asked := 0
	res, err := Iterate(ps, targetW, 12, 1e-9, nil,
		func(e telemetry.Event) {
			for i := range merged {
				merged[i].Bid = last[i]
			}
			want, err := Clear(merged, targetW)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(e.Price, want.Price) || !sameBits(e.SuppliedW, want.SuppliedW) {
				t.Fatalf("round %d cleared %v (%v W), Clear over the merged bids %v (%v W)",
					e.Round, e.Price, e.SuppliedW, want.Price, want.SuppliedW)
			}
		},
		func(round int, q float64, bids []Bid, _ *telemetry.ActiveSpan) error {
			asked++
			for i := range bids {
				if bids[i] != last[i] {
					t.Fatalf("round %d: slot %d holds %+v, its last bid is %+v", round, i, bids[i], last[i])
				}
				if (i+round)%3 == 0 {
					last[i] = Bid{Delta: last[i].Delta, B: last[i].B * (0.5 + q)}
					bids[i] = last[i]
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if asked != res.Rounds || res.Rounds < 3 {
		t.Fatalf("asked %d times over %d rounds, want ≥ 3 and equal", asked, res.Rounds)
	}
	for i, p := range ps {
		if p.Bid != before[i] {
			t.Fatalf("participant %d mutated: %+v -> %+v", i, before[i], p.Bid)
		}
	}
}

// TestIterateAskErrorEndsSpans: an ask that fails in round k gets its error
// returned, every span the market opened is ended, and round k emits no
// event — and the same for a bid the index refuses.
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
		_, err := Iterate(ps, poolMaxW(ps)/2, 100, 0, market, tracer.Emit,
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
		rounds := 0
		for _, e := range tracer.Events() {
			if e.Name == "market_round" {
				rounds++
				if e.Round >= k {
					t.Fatalf("%s: failed round %d emitted %+v", name, k, e)
				}
			}
		}
		if rounds != k-1 {
			t.Fatalf("%s: %d round events, want %d", name, rounds, k-1)
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
		res, err := Iterate(ps, target, 100, 1e-6, nil, func(telemetry.Event) { t.Fatal("emitted a round") },
			func(int, float64, []Bid, *telemetry.ActiveSpan) error {
				t.Fatal("asked a price")
				return nil
			})
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
