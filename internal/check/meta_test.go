package check

import (
	"math"
	"math/rand"
	"testing"

	"mpr/internal/core"
)

// metamorphic relations: transformations of a market instance with a
// known effect on the clearing outcome. Participant permutation must not
// change the outcome at all; uniform power rescaling by a power of two
// must not change the price to the last bit; uniform bid-reluctance
// scaling must scale the price by exactly the same factor.

const metaInstances = 300

// solvers is the table every relation runs over: the closed form and the
// bisection reference. exact marks the solver whose summation order is
// canonical, so its outputs are also held to bit-identity.
var solvers = []struct {
	name  string
	clear func([]*core.Participant, float64) (*core.ClearingResult, error)
	exact bool
}{
	{"closed-form", core.Clear, true},
	{"bisection", core.ClearBisect, false},
}

// permute returns ps reordered so out[k] = ps[perm[k]], plus the inverse
// mapping back to original indices.
func permute(ps []*core.Participant, rng *rand.Rand) ([]*core.Participant, []int) {
	perm := rng.Perm(len(ps))
	out := make([]*core.Participant, len(ps))
	for k, j := range perm {
		out[k] = ps[j]
	}
	return out, perm
}

// distinctFiniteKeys reports whether all finite activation prices in the
// pool are pairwise distinct. Δ = 0 participants are excluded: their +Inf
// keys tie in the sort but contribute nothing to the prefix sums, so they
// cannot perturb the clearing price.
func distinctFiniteKeys(ps []*core.Participant) bool {
	seen := make(map[float64]bool, len(ps))
	for _, p := range ps {
		if p.Bid.Delta <= 0 {
			continue
		}
		a := p.Bid.ActivationPrice()
		if seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}

// TestMetamorphicPermutationInvariance: reordering participants must not
// change feasibility, price, or any participant's reduction (mapped back
// through the permutation) for either solver; and for the closed form on
// pools with distinct activation keys — where the canonical
// (key, index)-tie-broken sort makes the summation order unique — the
// price and every reduction must be bit-for-bit identical.
func TestMetamorphicPermutationInvariance(t *testing.T) {
	for i := 0; i < metaInstances; i++ {
		seed := instanceSeed(0x3e7a_0001, i)
		g := NewGen(seed)
		ps := g.Pool(g.PoolSize(64))
		target := g.Target(MaxSupplyW(ps))
		qs, perm := permute(ps, rand.New(rand.NewSource(seed^0x5a5a)))
		for _, sv := range solvers {
			a, err := sv.clear(ps, target)
			if err != nil {
				t.Fatalf("seed %d: %v: %v", seed, sv.name, err)
			}
			b, err := sv.clear(qs, target)
			if err != nil {
				t.Fatalf("seed %d: %v permuted: %v", seed, sv.name, err)
			}
			// Un-permute the reductions so compareClears sees matching
			// participant order.
			back := *b
			back.Reductions = make([]float64, len(ps))
			for k, j := range perm {
				back.Reductions[j] = b.Reductions[k]
			}
			if err := compareClears(ps, target, a, &back); err != nil {
				t.Fatalf("seed %d: %v not permutation-invariant: %v", seed, sv.name, err)
			}
			if sv.exact && distinctFiniteKeys(ps) {
				if math.Float64bits(a.Price) != math.Float64bits(b.Price) {
					t.Fatalf("seed %d: closed-form price not bit-identical under permutation: %v vs %v",
						seed, a.Price, b.Price)
				}
				for k, j := range perm {
					if math.Float64bits(a.Reductions[j]) != math.Float64bits(b.Reductions[k]) {
						t.Fatalf("seed %d: reduction[%d] not bit-identical under permutation", seed, j)
					}
				}
			}
		}
	}
}

// TestMetamorphicScaleInvariance: multiplying every WattsPerCore and the
// target by the same power of two rescales both sides of every supply
// comparison exactly, so the clearing price — a quotient of two scaled
// sums — and every reduction must be bit-for-bit unchanged, in both
// solvers. (Away from the capacity boundary; saturation sentinels use
// absolute wattage thresholds that do not scale.)
func TestMetamorphicScaleInvariance(t *testing.T) {
	for i := 0; i < metaInstances; i++ {
		seed := instanceSeed(0x3e7a_0002, i)
		g := NewGen(seed)
		ps := g.Pool(g.PoolSize(64))
		maxW := MaxSupplyW(ps)
		target := g.Target(maxW)
		if target >= maxW*(1-Tol) {
			continue
		}
		for _, scale := range []float64{256, 0.015625} { // 2⁸ and 2⁻⁶
			qs := make([]*core.Participant, len(ps))
			for k, p := range ps {
				cp := *p
				cp.WattsPerCore = p.WattsPerCore * scale
				qs[k] = &cp
			}
			for _, sv := range solvers {
				a, err := sv.clear(ps, target)
				if err != nil {
					t.Fatalf("seed %d: %v: %v", seed, sv.name, err)
				}
				b, err := sv.clear(qs, target*scale)
				if err != nil {
					t.Fatalf("seed %d: %v scaled: %v", seed, sv.name, err)
				}
				if math.Float64bits(a.Price) != math.Float64bits(b.Price) {
					t.Fatalf("seed %d scale %v: %v price not bit-identical: %v vs %v",
						seed, scale, sv.name, a.Price, b.Price)
				}
				for k := range ps {
					if math.Float64bits(a.Reductions[k]) != math.Float64bits(b.Reductions[k]) {
						t.Fatalf("seed %d scale %v: %v reduction[%d] not bit-identical",
							seed, scale, sv.name, k)
					}
				}
			}
		}
	}
}

// TestMetamorphicBidScaling: scaling every reluctance b by a factor s is
// a change of price units — δ_{sb}(q) = δ_b(q/s) — so the clearing price
// must scale by exactly s. For a power-of-two s the closed form is
// bit-exact; a non-dyadic s is verified to the harness tolerance in both
// solvers.
func TestMetamorphicBidScaling(t *testing.T) {
	for i := 0; i < metaInstances; i++ {
		seed := instanceSeed(0x3e7a_0003, i)
		g := NewGen(seed)
		ps := g.Pool(g.PoolSize(64))
		maxW := MaxSupplyW(ps)
		target := g.Target(maxW)
		if target >= maxW*(1-Tol) {
			continue
		}
		base, err := core.Clear(ps, target)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scaleBids := func(s float64) []*core.Participant {
			qs := make([]*core.Participant, len(ps))
			for k, p := range ps {
				cp := *p
				cp.Bid.B = p.Bid.B * s
				qs[k] = &cp
			}
			return qs
		}
		// Dyadic factor: bit-exact price scaling in the closed form.
		dy, err := core.Clear(scaleBids(4), target)
		if err != nil {
			t.Fatalf("seed %d: dyadic: %v", seed, err)
		}
		if math.Float64bits(dy.Price) != math.Float64bits(4*base.Price) {
			t.Fatalf("seed %d: price %v under 4× reluctance, want exactly %v", seed, dy.Price, 4*base.Price)
		}
		for k := range ps {
			if math.Float64bits(dy.Reductions[k]) != math.Float64bits(base.Reductions[k]) {
				t.Fatalf("seed %d: reduction[%d] changed under uniform reluctance scaling", seed, k)
			}
		}
		// Non-dyadic factor: tolerance-level scaling in both solvers.
		for _, sv := range solvers {
			r, err := sv.clear(scaleBids(3), target)
			if err != nil {
				t.Fatalf("seed %d: %v 3×: %v", seed, sv.name, err)
			}
			want := 3 * base.Price
			if d := math.Abs(r.Price - want); d > Tol*(1+want) {
				t.Fatalf("seed %d: %v price %v under 3× reluctance, want %v", seed, sv.name, r.Price, want)
			}
		}
	}
}

// TestInteractiveDeterminism pins the regression surface of the parallel
// rebid fan-out: ClearInteractive must produce bit-for-bit identical
// prices, round counts, and allocations on every run (the pool of 600
// bidders is above parallelBidFloor, so the GOMAXPROCS-wide fan-out
// actually runs; -cpu varies its width) and regardless of participant
// order.
func TestInteractiveDeterminism(t *testing.T) {
	g := NewGen(0xde7e_12)
	ps, bidders, _ := g.CostPool(600)
	var capW float64
	for _, p := range ps {
		capW += p.WattsPerCore * p.MaxReduction()
	}
	target := 0.4 * capW
	cfg := core.InteractiveConfig{MaxRounds: 800, Tolerance: 1e-9}
	base, err := core.ClearInteractive(ps, bidders, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatalf("baseline did not converge in %d rounds", base.Rounds)
	}
	for run := 1; run <= 3; run++ {
		r, err := core.ClearInteractive(ps, bidders, target, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if math.Float64bits(r.Price) != math.Float64bits(base.Price) {
			t.Errorf("run %d: price %v, first run %v", run, r.Price, base.Price)
		}
		if r.Rounds != base.Rounds || r.Converged != base.Converged {
			t.Errorf("run %d: rounds/converged %d/%v, first run %d/%v",
				run, r.Rounds, r.Converged, base.Rounds, base.Converged)
		}
		for i := range ps {
			if math.Float64bits(r.Reductions[i]) != math.Float64bits(base.Reductions[i]) {
				t.Fatalf("run %d: reduction[%d] not bit-identical", run, i)
			}
		}
	}
	// Participant order: permute participants and bidders consistently;
	// the canonical activation sort restores a unique summation order, so
	// the whole price trajectory — and with it every allocation — must be
	// bit-for-bit identical under the inverse permutation.
	rng := rand.New(rand.NewSource(0xde7e_13))
	perm := rng.Perm(len(ps))
	psP := make([]*core.Participant, len(ps))
	bidP := make([]core.Bidder, len(ps))
	for k, j := range perm {
		psP[k] = ps[j]
		bidP[k] = bidders[j]
	}
	rp, err := core.ClearInteractive(psP, bidP, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rp.Price) != math.Float64bits(base.Price) {
		t.Errorf("permuted: price %v, original %v", rp.Price, base.Price)
	}
	if rp.Rounds != base.Rounds {
		t.Errorf("permuted: rounds %d, original %d", rp.Rounds, base.Rounds)
	}
	for k, j := range perm {
		if math.Float64bits(rp.Reductions[k]) != math.Float64bits(base.Reductions[j]) {
			t.Fatalf("permuted: reduction for participant %d not bit-identical", j)
		}
	}
}
