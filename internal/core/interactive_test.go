package core

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
	"mpr/internal/perf"
)

func interactiveSetup(t testing.TB, apps []string, cores float64) ([]*Participant, []Bidder) {
	t.Helper()
	ps := make([]*Participant, len(apps))
	bs := make([]Bidder, len(apps))
	for i, a := range apps {
		p, model := newParticipant(t, a, a, cores)
		ps[i] = p
		bs[i] = &RationalBidder{Cores: cores, Model: model}
	}
	return ps, bs
}

func TestInteractiveConverges(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT", "miniMD", "miniFE"}
	ps, bs := interactiveSetup(t, apps, 16)
	target := 4000.0
	res, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds (price %v)", res.Rounds, res.Price)
	}
	if res.SuppliedW < target-1e-6 {
		t.Errorf("supplied %v < target %v", res.SuppliedW, target)
	}
	if res.Rounds < 2 {
		t.Errorf("suspiciously fast convergence: %d rounds", res.Rounds)
	}
}

// The paper's optimality claim: MPR-INT's cost of performance loss is
// within a small factor of OPT's (Fig. 9(a): "nearly the same level").
func TestInteractiveNearOptimal(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT", "miniMD", "miniFE"}
	for _, target := range []float64{2000, 4000, 6000} {
		ps, bs := interactiveSetup(t, apps, 16)
		intRes, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		optRes, err := SolveOPT(ps, target, OPTDual)
		if err != nil {
			t.Fatal(err)
		}
		var intCost float64
		for i, p := range ps {
			intCost += p.Cost(intRes.Reductions[i])
		}
		if optRes.TotalCost <= 0 {
			t.Fatalf("OPT cost = %v", optRes.TotalCost)
		}
		ratio := intCost / optRes.TotalCost
		if ratio < 0.999 {
			t.Errorf("target %v: MPR-INT cost %v below OPT %v — OPT not optimal?", target, intCost, optRes.TotalCost)
		}
		if ratio > 1.15 {
			t.Errorf("target %v: MPR-INT cost %v too far above OPT %v (ratio %.3f)", target, intCost, optRes.TotalCost, ratio)
		}
	}
}

// MPR-STAT with cooperative bids costs at least as much as MPR-INT
// (Fig. 9(a): STAT incurs notably more cost than OPT/INT).
func TestStaticCostsAtLeastInteractive(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT", "miniMD", "miniFE"}
	target := 5000.0
	ps, bs := interactiveSetup(t, apps, 16)

	statRes, err := Clear(ps, target) // cooperative bids set by newParticipant
	if err != nil {
		t.Fatal(err)
	}
	var statCost float64
	for i, p := range ps {
		statCost += p.Cost(statRes.Reductions[i])
	}
	intRes, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var intCost float64
	for i, p := range ps {
		intCost += p.Cost(intRes.Reductions[i])
	}
	if statCost < intCost-1e-6 {
		t.Errorf("MPR-STAT cost %v below MPR-INT %v", statCost, intCost)
	}
}

// Iteration count stays essentially flat as the number of jobs grows — the
// paper's Fig. 10(b).
func TestInteractiveIterationsFlat(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	rounds := map[int]int{}
	for _, n := range []int{8, 64, 512} {
		names := make([]string, n)
		for i := range names {
			names[i] = apps[i%len(apps)]
		}
		ps, bs := interactiveSetup(t, names, 8)
		// Target scales with pool size so the market stress is constant.
		target := float64(n) * 8 * 125 * 0.3
		res, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d did not converge", n)
		}
		rounds[n] = res.Rounds
	}
	if r8, r512 := rounds[8], rounds[512]; r512 > 3*r8+5 {
		t.Errorf("iterations grew with jobs: %v", rounds)
	}
}

func TestInteractiveZeroTarget(t *testing.T) {
	ps, bs := interactiveSetup(t, []string{"XSBench"}, 4)
	res, err := ClearInteractive(ps, bs, 0, InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 0 || res.Price != 0 {
		t.Errorf("zero target result = %+v", res)
	}
}

func TestInteractiveMismatch(t *testing.T) {
	ps, _ := interactiveSetup(t, []string{"XSBench"}, 4)
	if _, err := ClearInteractive(ps, nil, 100, InteractiveConfig{}); err == nil {
		t.Error("bidder/participant mismatch accepted")
	}
}

func TestInteractiveNoParticipants(t *testing.T) {
	if _, err := ClearInteractive(nil, nil, 100, InteractiveConfig{}); err != ErrNoParticipants {
		t.Errorf("err = %v, want ErrNoParticipants", err)
	}
}

func TestInteractiveWithStaticBidders(t *testing.T) {
	// Mixed market: half rational, half static cooperative — models
	// partial MPR-INT adoption.
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	ps, bs := interactiveSetup(t, apps, 16)
	for i := 0; i < 2; i++ {
		prof, _ := perf.ProfileByName(apps[i])
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		bs[i] = &StaticBidder{Fixed: CooperativeBid(16, model)}
	}
	target := 2500.0
	res, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.SuppliedW < target-1e-6 {
		t.Errorf("mixed market result = %+v", res)
	}
}

func TestOPTDualMeetsTarget(t *testing.T) {
	ps := testPool(t)
	target := 4000.0
	res, err := SolveOPT(ps, target, OPTDual)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.SuppliedW < target-1e-4 {
		t.Errorf("OPT result = %+v", res)
	}
	// Bounds respected.
	for i, p := range ps {
		if res.Reductions[i] < -1e-12 || res.Reductions[i] > p.MaxReduction()+1e-9 {
			t.Errorf("reduction %d out of bounds: %v", i, res.Reductions[i])
		}
	}
}

func TestOPTGenericNearDual(t *testing.T) {
	ps := testPool(t)
	target := 4000.0
	gen, err := SolveOPT(ps, target, OPTGeneric)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := SolveOPT(ps, target, OPTDual)
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Feasible {
		t.Fatal("generic infeasible")
	}
	if gen.TotalCost < dual.TotalCost-1e-6 {
		t.Errorf("generic beat dual optimum: %v < %v", gen.TotalCost, dual.TotalCost)
	}
	if (gen.TotalCost-dual.TotalCost)/dual.TotalCost > 0.05 {
		t.Errorf("generic too far from optimum: %v vs %v", gen.TotalCost, dual.TotalCost)
	}
}

// OPT shifts reductions to insensitive applications: RSBench (least
// sensitive) must give up more than SimpleMOC (most sensitive) per core.
func TestOPTFavorsInsensitiveApps(t *testing.T) {
	ps := testPool(t)
	res, err := SolveOPT(ps, 3000, OPTDual)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]float64{}
	for i, p := range ps {
		byID[p.JobID] = res.Reductions[i]
	}
	if byID["RSBench"] <= byID["SimpleMOC"] {
		t.Errorf("RSBench reduction %v should exceed SimpleMOC %v", byID["RSBench"], byID["SimpleMOC"])
	}
}

func TestOPTRequiresCostFunctions(t *testing.T) {
	p := &Participant{JobID: "x", Cores: 4, WattsPerCore: 125, MaxFrac: 0.7, Bid: Bid{Delta: 2.8}}
	if _, err := SolveOPT([]*Participant{p}, 100, OPTDual); err == nil {
		t.Error("OPT without cost functions accepted")
	}
}

func TestOPTZeroTargetAndEmpty(t *testing.T) {
	res, err := SolveOPT(nil, 0, OPTDual)
	if err != nil || !res.Feasible {
		t.Errorf("zero target: %v %+v", err, res)
	}
	if _, err := SolveOPT(nil, 10, OPTDual); err != ErrNoParticipants {
		t.Errorf("err = %v", err)
	}
}

func TestEQLUniformFraction(t *testing.T) {
	ps := testPool(t)
	target := 3000.0
	res, err := SolveEQL(ps, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.SuppliedW < target-1e-6 {
		t.Fatalf("EQL result = %+v", res)
	}
	// All fractions equal.
	frac0 := res.Reductions[0] / ps[0].Cores
	for i, p := range ps {
		f := res.Reductions[i] / p.Cores
		if !floats.AbsEqual(f, frac0, 1e-9) {
			t.Errorf("fraction %d = %v, want uniform %v", i, f, frac0)
		}
	}
}

func TestEQLInfeasibleBeyondFloor(t *testing.T) {
	ps := testPool(t)
	// min MaxFrac = 0.7 → max supply = Σ cores·0.7·125 = 8400 W.
	res, err := SolveEQL(ps, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("EQL should be infeasible beyond the uniform floor")
	}
	for i, p := range ps {
		if !floats.AbsEqual(res.Reductions[i]/p.Cores, 0.7, 1e-9) {
			t.Errorf("infeasible EQL should saturate at min MaxFrac")
		}
	}
}

// EQL's cost always at least OPT's — it is performance-oblivious.
func TestEQLCostAtLeastOPT(t *testing.T) {
	ps := testPool(t)
	for _, target := range []float64{1000, 3000, 6000} {
		eql, err := SolveEQL(ps, target)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := SolveOPT(ps, target, OPTDual)
		if err != nil {
			t.Fatal(err)
		}
		if eql.TotalCost < opt.TotalCost-1e-9 {
			t.Errorf("target %v: EQL cost %v below OPT %v", target, eql.TotalCost, opt.TotalCost)
		}
	}
}

func TestEQLZeroTargetAndEmpty(t *testing.T) {
	res, err := SolveEQL(nil, 0)
	if err != nil || !res.Feasible {
		t.Errorf("zero target: %v %+v", err, res)
	}
	if _, err := SolveEQL(nil, 5); err != ErrNoParticipants {
		t.Errorf("err = %v", err)
	}
}

func TestOPTMethodString(t *testing.T) {
	if OPTGeneric.String() != "generic" || OPTDual.String() != "dual" || OPTMethod(9).String() != "unknown" {
		t.Error("OPTMethod strings")
	}
}

// Property (Johari-Tsitsiklis / [21]): with price-taking rational bidders
// and convex costs, the interactive market's equilibrium allocation
// equalizes marginal costs and therefore matches the social optimum, for
// random pools and targets.
func TestInteractiveEquilibriumEfficiencyProperty(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT", "miniMD", "miniFE"}
	prop := func(seed uint8, rawFrac float64) bool {
		frac := 0.15 + math.Mod(math.Abs(rawFrac), 0.6) // 15-75% of max supply
		n := 4 + int(seed%5)
		names := make([]string, n)
		for i := range names {
			names[i] = apps[(int(seed)+i)%len(apps)]
		}
		cores := 4 + float64(seed%3)*8
		ps, bs := interactiveSetup(t, names, cores)
		var maxW float64
		for _, p := range ps {
			maxW += p.WattsPerCore * p.MaxFrac * p.Cores
		}
		target := frac * maxW
		intRes, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
		if err != nil || !intRes.Converged {
			return false
		}
		optRes, err := SolveOPT(ps, target, OPTDual)
		if err != nil || !optRes.Feasible {
			return false
		}
		var intCost float64
		for i, p := range ps {
			intCost += p.Cost(intRes.Reductions[i])
		}
		if optRes.TotalCost <= 1e-9 {
			return intCost <= 1e-6
		}
		ratio := intCost / optRes.TotalCost
		return ratio > 0.98 && ratio < 1.10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// countingBidder is a custom Bidder that counts its calls; the rebid
// fan-out must call it exactly as it always has, once per round.
type countingBidder struct {
	calls atomic.Int64
	bid   Bid
}

func (c *countingBidder) RespondBid(price float64) Bid {
	c.calls.Add(1)
	return Bid{Delta: c.bid.Delta, B: c.bid.B * price}
}

// TestRespondBidsSharesClasses pins the sharing rule of the rebid fan-out:
// one call's rational bidders with equal cost models share one per-core
// solve a round, and nothing else may change — every bid is bit-identical
// to the bidder's own RespondBid, at 1, 2 and 7 workers and on both sides
// of parallelBidFloor; other Bidder types are called once each per round;
// a NaN-α model equals nothing, itself included, and answers for itself.
func TestRespondBidsSharesClasses(t *testing.T) {
	profs := perf.CPUProfiles()
	shared := perf.NewCostModel(profs[0], 1.5, perf.CostLinear)
	nan := &perf.CostModel{Profile: profs[1], Alpha: math.NaN(), Shape: perf.CostLinear}
	rng := rand.New(rand.NewSource(20))
	build := func(n int) ([]Bidder, []*countingBidder) {
		bs := make([]Bidder, n)
		var custom []*countingBidder
		for i := range bs {
			cores := float64(int(1) << rng.Intn(6))
			prof := profs[rng.Intn(len(profs))]
			switch i % 8 {
			case 0: // one model, shared by pointer
				bs[i] = &RationalBidder{Cores: cores, Model: shared}
			case 1, 2: // equal values behind distinct pointers, linear and quadratic
				shape := perf.CostShape(i%8 - 1)
				bs[i] = &RationalBidder{Cores: cores, Model: perf.NewCostModel(prof, 2, shape)}
			case 3, 4: // a model of its own: more of these than there are classes
				bs[i] = &RationalBidder{Cores: cores, Model: perf.NewCostModel(prof, 1+rng.Float64(), perf.CostLinear)}
			case 5:
				bs[i] = &StaticBidder{Fixed: Bid{Delta: cores * 0.5, B: rng.Float64()}}
			case 6:
				c := &countingBidder{bid: Bid{Delta: cores * 0.4, B: rng.Float64()}}
				custom = append(custom, c)
				bs[i] = c
			case 7:
				bs[i] = &RationalBidder{Cores: cores, Model: nan}
			}
		}
		return bs, custom
	}
	for _, n := range []int{7, parallelBidFloor - 1, parallelBidFloor, 3*parallelBidFloor + 5} {
		bidders, custom := build(n)
		out := make([]Bid, n)
		rounds := 0
		for _, workers := range []int{1, 2, 7} {
			// One call's classes, as ClearInteractive builds them, answer
			// every price of the call.
			classes := newBidClasses(bidders)
			for _, price := range []float64{0, 0.05, 0.4, 3} {
				rounds++
				classes.respond(price, out, workers)
				for i, b := range bidders {
					var want Bid
					if c, ok := b.(*countingBidder); ok {
						// Calling it here would add to its count.
						want = Bid{Delta: c.bid.Delta, B: c.bid.B * price}
					} else {
						want = b.RespondBid(price)
					}
					if math.Float64bits(out[i].Delta) != math.Float64bits(want.Delta) ||
						math.Float64bits(out[i].B) != math.Float64bits(want.B) {
						t.Fatalf("n=%d workers=%d price=%v: bidder %d (%T) bid %+v, its own RespondBid %+v",
							n, workers, price, i, b, out[i], want)
					}
				}
				for _, c := range custom {
					if got := c.calls.Load(); got != int64(rounds) {
						t.Fatalf("n=%d workers=%d: custom bidder called %d times in %d rounds", n, workers, got, rounds)
					}
				}
			}
		}
	}

	// The classes themselves: equal models share one, whether by pointer
	// or by value; a NaN-α model and every non-rational bidder answer for
	// themselves; once the classes are full, further models answer for
	// themselves too, and a model already classed still finds its class.
	bs := []Bidder{
		&RationalBidder{Cores: 4, Model: shared},
		&RationalBidder{Cores: 16, Model: perf.NewCostModel(profs[0], 1.5, perf.CostLinear)},
		&RationalBidder{Cores: 2, Model: nan},
		&RationalBidder{Cores: 2, Model: nan},
		&StaticBidder{Fixed: Bid{Delta: 1, B: 1}},
	}
	for i := 0; i < 2*bestResponseSlots; i++ {
		bs = append(bs, &RationalBidder{Cores: 8, Model: perf.NewCostModel(profs[2], 1+float64(i), perf.CostLinear)})
	}
	bs = append(bs, &RationalBidder{Cores: 3, Model: shared})
	c := newBidClasses(bs)
	if c.n != bestResponseSlots {
		t.Errorf("%d classes, want them full at %d", c.n, bestResponseSlots)
	}
	want := []int8{0, 0, -1, -1, -1}
	for i := 0; i < 2*bestResponseSlots; i++ {
		k := int8(-1)
		if i < bestResponseSlots-1 {
			k = int8(i + 1)
		}
		want = append(want, k)
	}
	want = append(want, 0)
	if !slices.Equal(c.class, want) {
		t.Errorf("classes %v, want %v", c.class, want)
	}
	out := make([]Bid, len(bs))
	c.respond(0.4, out, 1)
	for i, b := range bs {
		if got, want := out[i], b.RespondBid(0.4); !sameBits(got.Delta, want.Delta) || !sameBits(got.B, want.B) {
			t.Fatalf("bidder %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestClearInteractiveRecyclesIndex is the allocation gate of an MPR-INT
// market at a pooled size: the market index comes from the pool Clear
// recycles, so a call allocates five objects — the result and its
// reductions, the bids its bidders fill, and the bid classes (a struct and
// its class slice) — and no index array, which costs seven more. The bound
// is 8, not 5, because under the race detector sync.Pool drops about one
// Put in four.
func TestClearInteractiveRecyclesIndex(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT", "miniMD", "miniFE"}
	var pool []string
	for len(pool) < 64 {
		pool = append(pool, apps...)
	}
	ps, bs := interactiveSetup(t, pool, 16)
	clear := func() {
		if _, err := ClearInteractive(ps, bs, 20000, InteractiveConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	clear()
	if allocs := testing.AllocsPerRun(100, clear); allocs > 8 {
		t.Fatalf("ClearInteractive over %d participants allocates %v per call, want at most 8", len(ps), allocs)
	}
}
