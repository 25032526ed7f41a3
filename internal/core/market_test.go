package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
	"mpr/internal/perf"
)

// newParticipant builds a participant for application `app` with the given
// cores, wiring the evaluation-side cost functions from the perf model.
func newParticipant(t testing.TB, id, app string, cores float64) (*Participant, *perf.CostModel) {
	t.Helper()
	prof, err := perf.ProfileByName(app)
	if err != nil {
		t.Fatal(err)
	}
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	p := &Participant{
		JobID:        id,
		Cores:        cores,
		WattsPerCore: 125,
		MaxFrac:      prof.MaxReduction(),
		Cost: func(d float64) float64 {
			if cores <= 0 {
				return 0
			}
			return cores * model.Cost(d/cores)
		},
		MarginalCost: func(d float64) float64 {
			if cores <= 0 {
				return 0
			}
			return model.Marginal(d / cores)
		},
	}
	p.Bid = CooperativeBid(cores, model)
	return p, model
}

func testPool(t testing.TB) []*Participant {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT"}
	ps := make([]*Participant, len(apps))
	for i, a := range apps {
		p, _ := newParticipant(t, a, a, 16)
		ps[i] = p
	}
	return ps
}

func TestBidSupplyShape(t *testing.T) {
	b := Bid{Delta: 0.7, B: 0.14}
	if s := b.Supply(0); s != 0 {
		t.Errorf("supply(0) = %v", s)
	}
	// Activation at q = b/Δ = 0.2.
	if s := b.Supply(0.2); !floats.AbsEqual(s, 0, 1e-12) {
		t.Errorf("supply at activation = %v", s)
	}
	if s := b.Supply(0.4); !floats.AbsEqual(s, 0.35, 1e-12) {
		t.Errorf("supply(0.4) = %v, want 0.35", s)
	}
	if s := b.Supply(1e12); !floats.AbsEqual(s, 0.7, 1e-6) {
		t.Errorf("supply at huge price = %v, want ~Δ", s)
	}
	// Fully willing bidder: full supply at any price.
	if s := (Bid{Delta: 0.5, B: 0}).Supply(0); s != 0.5 {
		t.Errorf("b=0 supply(0) = %v", s)
	}
}

// Property: supply is in [0, Δ] and non-decreasing in price.
func TestBidSupplyProperties(t *testing.T) {
	prop := func(rawDelta, rawB, rawQ1, rawQ2 float64) bool {
		delta := math.Abs(math.Mod(rawDelta, 100))
		bb := math.Abs(math.Mod(rawB, 50))
		q1 := math.Abs(math.Mod(rawQ1, 10))
		q2 := math.Abs(math.Mod(rawQ2, 10))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		b := Bid{Delta: delta, B: bb}
		s1, s2 := b.Supply(q1), b.Supply(q2)
		return s1 >= 0 && s2 <= delta+1e-12 && s1 <= s2+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBidValidate(t *testing.T) {
	if err := (Bid{Delta: -1}).Validate(); err == nil {
		t.Error("negative Δ accepted")
	}
	if err := (Bid{Delta: 1, B: -1}).Validate(); err == nil {
		t.Error("negative b accepted")
	}
	if err := (Bid{Delta: 1, B: 0.5}).Validate(); err != nil {
		t.Errorf("valid bid rejected: %v", err)
	}
}

// A NaN or infinite Δ or b passes every `< 0` test, and a NaN activation
// key used to clear the whole market at price 0 (supply 0, "feasible").
// Every entry point that takes a bid must refuse it and keep its state.
func TestNonFiniteBidsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	var bad []Bid
	for _, v := range []float64{nan, inf, -inf} {
		bad = append(bad, Bid{Delta: 2, B: v}, Bid{Delta: v, B: 1})
	}
	pool := func() []*Participant {
		return []*Participant{
			{JobID: "a", Cores: 4, WattsPerCore: 100, Bid: Bid{Delta: 2, B: 0.5}},
			{JobID: "b", Cores: 4, WattsPerCore: 100, Bid: Bid{Delta: 2, B: 1}},
		}
	}
	const target = 150
	want, err := Clear(pool(), target)
	if err != nil || want.Price <= 0 {
		t.Fatalf("reference clear: %+v, %v", want, err)
	}
	for _, b := range bad {
		if b.Validate() == nil {
			t.Errorf("%+v validates", b)
		}
		ps := append(pool(), &Participant{JobID: "bad", Cores: 4, WattsPerCore: 100, Bid: b})
		if res, err := Clear(ps, target); err == nil {
			t.Errorf("Clear with %+v: %+v, want an error", b, res)
		}

		ix, err := NewMarketIndex(pool())
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.SetBid(1, b); err == nil {
			t.Errorf("SetBid(%+v) accepted", b)
		}
		var got ClearingResult
		if err := ix.ClearInto(&got, target); err != nil || got.Price != want.Price {
			t.Errorf("index after rejected SetBid(%+v) clears at %v (%v), want %v", b, got.Price, err, want.Price)
		}

		sm, err := NewStreamMarket(pool(), target)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sm.Apply(ParticipantDelta{Index: 1, Bid: b}); err == nil {
			t.Errorf("Apply(%+v) accepted", b)
		}
		if _, _, err := sm.Apply(ParticipantDelta{Index: 2, Bid: b, WattsPerCore: 100}); err == nil {
			t.Errorf("Apply(append %+v) accepted", b)
		}
		if p, _ := sm.Price(); p != want.Price {
			t.Errorf("stream after rejected Apply(%+v) prices at %v, want %v", b, p, want.Price)
		}
	}
}

// The same hole on the participant side: NaN compares false with
// everything, so "Cores < 0" and "WattsPerCore <= 0" let it through, and
// one NaN watts-per-core made every SuppliedW sum NaN. Every solver
// entry point and the stream's update and append paths must refuse
// non-finite cores and watts and leave a built market unchanged.
func TestNonFiniteParticipantsRejected(t *testing.T) {
	pool := func() []*Participant {
		return []*Participant{
			{JobID: "a", Cores: 4, WattsPerCore: 100, Bid: Bid{Delta: 2, B: 0.5}},
			{JobID: "b", Cores: 4, WattsPerCore: 100, Bid: Bid{Delta: 2, B: 1}},
		}
	}
	const target = 150
	sm, err := NewStreamMarket(pool(), target)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sm.Price()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, bad := range []*Participant{
			{JobID: "cores", Cores: v, WattsPerCore: 100, Bid: Bid{Delta: 2, B: 1}},
			{JobID: "watts", Cores: 4, WattsPerCore: v, Bid: Bid{Delta: 2, B: 1}},
		} {
			if bad.Validate() == nil {
				t.Errorf("%s = %v validates", bad.JobID, v)
			}
			ps := append(pool(), bad)
			if res, err := Clear(ps, target); err == nil {
				t.Errorf("Clear with %s = %v: %+v, want an error", bad.JobID, v, res)
			}
			if res, err := ClearBisect(ps, target); err == nil {
				t.Errorf("ClearBisect with %s = %v: %+v, want an error", bad.JobID, v, res)
			}
			if _, err := NewStreamMarket(ps, target); err == nil {
				t.Errorf("NewStreamMarket with %s = %v accepted", bad.JobID, v)
			}
		}
		for _, idx := range []int{1, 2} { // update, append
			if _, _, err := sm.Apply(ParticipantDelta{Index: idx, Bid: Bid{Delta: 2, B: 1}, WattsPerCore: v}); err == nil {
				t.Errorf("Apply(index %d, watts %v) accepted", idx, v)
			}
		}
		var got ClearingResult
		if err := sm.ClearInto(&got); err != nil || got.Price != want || math.IsNaN(got.SuppliedW) || sm.Len() != 2 {
			t.Errorf("stream after rejected watts %v: %+v (%v), want price %v over 2 slots", v, got, err, want)
		}
	}
}

// TestNonFiniteTargetRefused: a NaN reduction target is refused by every
// clearing entry point with ErrNaNTarget — it used to come back as a
// feasible, converged clear at a NaN price (and from ClearInteractive
// after the whole round budget) — while ±Inf keeps the ordered answer it
// always had: nothing to buy, or everything and still short.
func TestNonFiniteTargetRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ps := randomPool(rand.New(rand.NewSource(5)), 40)
	asked := 0
	bidders := make([]Bidder, len(ps))
	for i, p := range ps {
		bidders[i] = askedBidder{bid: p.Bid, asked: &asked}
	}
	ix, err := NewMarketIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewStreamMarket(ps, 100)
	if err != nil {
		t.Fatal(err)
	}
	price0, feasible0 := sm.Price()
	res := &ClearingResult{Price: 7}

	refused := map[string]func() error{
		"Clear":             func() error { _, err := Clear(ps, nan); return err },
		"Clear(empty)":      func() error { _, err := Clear(nil, nan); return err },
		"ClearBisect":       func() error { _, err := ClearBisect(ps, nan); return err },
		"MarketIndex.Clear": func() error { _, err := ix.Clear(nan); return err },
		"MarketIndex.ClearInto": func() error {
			err := ix.ClearInto(res, nan)
			if res.Price != 7 {
				t.Errorf("refused ClearInto wrote into its result: %+v", res)
			}
			return err
		},
		"NewStreamMarket": func() error { _, err := NewStreamMarket(ps, nan); return err },
		"SetTarget": func() error {
			p, f, err := sm.SetTarget(nan)
			if p != price0 || f != feasible0 || sm.Target() != 100 {
				t.Errorf("refused SetTarget moved the market: (%v, %v) target %v", p, f, sm.Target())
			}
			return err
		},
		"ClearInteractive": func() error {
			_, err := ClearInteractive(ps, bidders, nan, InteractiveConfig{})
			if asked != 0 {
				t.Errorf("ClearInteractive asked %d bids before refusing the target", asked)
			}
			return err
		},
	}
	for name, call := range refused {
		if err := call(); !errors.Is(err, ErrNaNTarget) {
			t.Errorf("%s(NaN target): err = %v, want ErrNaNTarget", name, err)
		}
	}

	// ±Inf is ordered: −Inf is nothing to buy, +Inf infeasible at a
	// finite saturation price with every job at its maximum.
	for name, clear := range map[string]func(float64) (*ClearingResult, error){
		"Clear": func(w float64) (*ClearingResult, error) { return Clear(ps, w) },
		"Iterate": func(w float64) (*ClearingResult, error) {
			return Iterate(ps, w, 3, interactiveTolerance, nil, askAll(bidders))
		},
		"StreamMarket": func(w float64) (*ClearingResult, error) {
			s, err := NewStreamMarket(ps, w)
			if err != nil {
				return nil, err
			}
			out := &ClearingResult{}
			return out, s.ClearInto(out)
		},
	} {
		lo, err := clear(-inf)
		if err != nil || !lo.Feasible || lo.Price != 0 || lo.SuppliedW != 0 {
			t.Errorf("%s(-Inf) = %+v, %v; want the empty clear", name, lo, err)
		}
		hi, err := clear(inf)
		if err != nil || hi.Feasible || !(hi.Price > 0 && hi.Price <= 1e15) || !(hi.SuppliedW > 0.999*poolMaxW(ps)) {
			t.Errorf("%s(+Inf) = %+v, %v; want infeasible at a finite saturation price", name, hi, err)
		}
	}
	if p, f, err := sm.SetTarget(inf); err != nil || f || !(p > 0 && p <= 1e15) {
		t.Errorf("SetTarget(+Inf) = (%v, %v, %v), want infeasible at a finite saturation price", p, f, err)
	}
}

// askedBidder answers every price with one bid and counts the asks.
type askedBidder struct {
	bid   Bid
	asked *int
}

func (a askedBidder) RespondBid(float64) Bid { *a.asked++; return a.bid }

func TestActivationPrice(t *testing.T) {
	if ap := (Bid{Delta: 0.7, B: 0.14}).ActivationPrice(); !floats.AbsEqual(ap, 0.2, 1e-12) {
		t.Errorf("activation = %v", ap)
	}
	if ap := (Bid{Delta: 0, B: 5}).ActivationPrice(); ap != 0 {
		t.Errorf("zero-Δ activation = %v", ap)
	}
}

func TestClearMeetsTarget(t *testing.T) {
	ps := testPool(t)
	// Max supply: 6 jobs × 16 cores × 0.7 × 125 W = 8400 W.
	target := 3000.0
	res, err := Clear(ps, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("should be feasible")
	}
	if res.SuppliedW < target-1e-6 {
		t.Errorf("supplied %v < target %v", res.SuppliedW, target)
	}
	// Minimality: at a slightly lower price, supply falls short.
	eps := res.Price * 1e-3
	var below float64
	for _, p := range ps {
		below += p.WattsPerCore * p.Bid.Supply(res.Price-eps)
	}
	if below >= target+1e-6 && res.Price > eps {
		t.Errorf("price not minimal: supply at q-ε = %v >= target", below)
	}
}

func TestClearZeroTarget(t *testing.T) {
	ps := testPool(t)
	res, err := Clear(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Price != 0 || res.SuppliedW != 0 {
		t.Errorf("zero target result = %+v", res)
	}
	for _, d := range res.Reductions {
		if d != 0 {
			t.Error("nonzero reduction for zero target")
		}
	}
}

func TestClearNoParticipants(t *testing.T) {
	if _, err := Clear(nil, 100); err != ErrNoParticipants {
		t.Errorf("err = %v, want ErrNoParticipants", err)
	}
	// Zero target with no participants is fine.
	if _, err := Clear(nil, 0); err != nil {
		t.Errorf("zero target should succeed: %v", err)
	}
}

func TestClearInfeasible(t *testing.T) {
	ps := testPool(t)
	res, err := Clear(ps, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("should be infeasible")
	}
	// Every participant saturates at its maximum.
	for i, p := range ps {
		if !floats.AbsEqual(res.Reductions[i], p.Bid.Delta, 1e-3) {
			t.Errorf("participant %d not saturated: %v vs Δ=%v", i, res.Reductions[i], p.Bid.Delta)
		}
	}
}

func TestClearValidatesParticipants(t *testing.T) {
	bad := &Participant{JobID: "bad", Cores: 1, WattsPerCore: 0, Bid: Bid{Delta: 1}}
	if _, err := Clear([]*Participant{bad}, 10); err == nil {
		t.Error("invalid participant accepted")
	}
}

// Property: for random feasible targets the cleared supply meets the
// target and no reduction exceeds its bid's Δ.
func TestClearProperty(t *testing.T) {
	ps := testPool(t)
	maxW := 0.0
	for _, p := range ps {
		maxW += p.WattsPerCore * p.Bid.Delta
	}
	prop := func(raw float64) bool {
		target := math.Abs(math.Mod(raw, 0.95)) * maxW
		res, err := Clear(ps, target)
		if err != nil || !res.Feasible {
			return false
		}
		if res.SuppliedW < target-1e-6 {
			return false
		}
		for i, p := range ps {
			if res.Reductions[i] < -1e-12 || res.Reductions[i] > p.Bid.Delta+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Higher prices are needed for higher targets (clearing price monotone in
// target).
func TestClearPriceMonotoneInTarget(t *testing.T) {
	ps := testPool(t)
	prev := -1.0
	for _, target := range []float64{500, 1500, 3000, 5000, 7000} {
		res, err := Clear(ps, target)
		if err != nil {
			t.Fatal(err)
		}
		if res.Price < prev-1e-9 {
			t.Errorf("price decreased at target %v: %v < %v", target, res.Price, prev)
		}
		prev = res.Price
	}
}

func TestSettle(t *testing.T) {
	ps := testPool(t)
	res, err := Clear(ps, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Settle(ps, res.Reductions, res.Price)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != len(ps) {
		t.Fatalf("settlements = %d", len(ss))
	}
	var paid float64
	for _, s := range ss {
		paid += s.PaymentRate
	}
	if !floats.AbsEqual(paid, res.PayoutRate, 1e-9) {
		t.Errorf("total payment %v != payout rate %v", paid, res.PayoutRate)
	}
	var cost float64
	for _, s := range ss {
		if !floats.AbsEqual(s.NetGainRate, s.PaymentRate-s.CostRate, 1e-12) {
			t.Errorf("net gain arithmetic: %+v", s)
		}
		cost += s.CostRate
	}
	if cost <= 0 {
		t.Error("expected positive total cost for a met target")
	}
	if _, err := Settle(ps, res.Reductions[:1], res.Price); err == nil {
		t.Error("length mismatch accepted")
	}
}

// The headline market property: cooperative bidders never lose money at
// any clearing price (Section III-C, Fig. 4(a)).
func TestCooperativeBidNoLossAtAnyPrice(t *testing.T) {
	for _, app := range []string{"XSBench", "SimpleMOC", "RSBench", "Jacobi"} {
		prof, _ := perf.ProfileByName(app)
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		cores := 8.0
		bid := CooperativeBid(cores, model)
		if bid.Delta <= 0 {
			t.Fatalf("%s: empty cooperative bid", app)
		}
		for q := 0.01; q < 20; q *= 1.3 {
			d := bid.Supply(q)
			cost := cores * model.Cost(d/cores)
			gain := q*d - cost
			if gain < -1e-6 {
				t.Errorf("%s: cooperative bid loses at q=%v: gain=%v", app, q, gain)
			}
		}
	}
}

// CooperativeBids is CooperativeBid with a memory: the same bid, bit for
// bit, for one solve per distinct model value.
func TestCooperativeBidsSolvesEachModelOnce(t *testing.T) {
	var coop CooperativeBids
	models := 0
	for pass := 0; pass < 2; pass++ {
		for _, prof := range perf.CPUProfiles() {
			for _, alpha := range []float64{0.6, 1, 2.5} {
				for _, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
					if pass == 0 {
						models++
					}
					for _, cores := range []float64{0, 1, 3, 64} {
						// A fresh pointer each time: models match by value.
						model := perf.NewCostModelUnchecked(prof, alpha, shape)
						if got, want := coop.Bid(cores, model), CooperativeBid(cores, model); got != want {
							t.Fatalf("%s α=%v %v × %v cores: %+v, want %+v", prof.Name, alpha, shape, cores, got, want)
						}
					}
				}
			}
		}
	}
	if coop.Solves() != models {
		t.Errorf("%d solves for %d distinct models", coop.Solves(), models)
	}
	nan := &perf.CostModel{Profile: perf.CPUProfiles()[0], Alpha: math.NaN()}
	coop.Bid(4, nan)
	coop.Bid(4, nan)
	if coop.Solves() != models+2 {
		t.Errorf("a NaN-α model must be solved every time: %d solves, want %d", coop.Solves(), models+2)
	}
	if coop.Reset(); coop.Solves() != 0 {
		t.Errorf("%d solves after Reset", coop.Solves())
	}
}

// A deficient bid must lose money somewhere in the price range — that is
// what makes it deficient (Fig. 4(a)).
func TestDeficientBidLosesSomewhere(t *testing.T) {
	prof, _ := perf.ProfileByName("XSBench")
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	cores := 8.0
	bid := DeficientBid(cores, model, 0.3)
	worst := math.Inf(1)
	for q := 0.01; q < 20; q *= 1.1 {
		d := bid.Supply(q)
		gain := q*d - cores*model.Cost(d/cores)
		if gain < worst {
			worst = gain
		}
	}
	if worst >= 0 {
		t.Errorf("deficient bid never lost money (worst gain %v)", worst)
	}
}

// A conservative bid supplies no more than the cooperative bid at every
// price.
func TestConservativeBidSuppliesLess(t *testing.T) {
	prof, _ := perf.ProfileByName("SWFFT")
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	coop := CooperativeBid(4, model)
	cons := ConservativeBid(4, model, 1.5)
	for q := 0.05; q < 10; q *= 1.5 {
		if cons.Supply(q) > coop.Supply(q)+1e-12 {
			t.Errorf("conservative supplies more at q=%v", q)
		}
	}
	// Factor below 1 is clamped to 1 (same as cooperative).
	same := ConservativeBid(4, model, 0.5)
	if same.B != coop.B {
		t.Error("conservative factor < 1 not clamped")
	}
	// Deficient factor clamps to [0, 1].
	if DeficientBid(4, model, 2).B != coop.B {
		t.Error("deficient factor > 1 not clamped")
	}
	if DeficientBid(4, model, -1).B != 0 {
		t.Error("deficient factor < 0 not clamped")
	}
}

func TestRationalBidderSupplyMatchesOptimum(t *testing.T) {
	prof, _ := perf.ProfileByName("XSBench")
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	rb := &RationalBidder{Cores: 10, Model: model}
	for _, q := range []float64{0.2, 0.5, 1.0, 2.0} {
		bid := rb.RespondBid(q)
		want := 10 * model.GainMaximizingReduction(q)
		if got := bid.Supply(q); !floats.AbsEqual(got, want, 1e-6) {
			t.Errorf("q=%v: bid supplies %v, gain-optimal is %v", q, got, want)
		}
	}
}

func TestRationalBidderZeroCores(t *testing.T) {
	prof, _ := perf.ProfileByName("XSBench")
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	rb := &RationalBidder{Cores: 0, Model: model}
	bid := rb.RespondBid(1)
	if bid.Delta != 0 || bid.B != 0 {
		t.Errorf("zero-core bid = %+v", bid)
	}
}
