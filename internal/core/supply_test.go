package core

import (
	"math"
	"math/rand"
	"testing"
)

// branchingSupply is Bid.Supply as it was written with a branch per
// clamp: the oracle the min/max form must equal for every input.
func branchingSupply(b Bid, q float64) float64 {
	if b.Delta <= 0 {
		return 0
	}
	if q <= 0 {
		if b.B == 0 {
			return b.Delta
		}
		return 0
	}
	s := b.Delta - b.B/q
	if s < 0 {
		return 0
	}
	if s > b.Delta {
		return b.Delta
	}
	return s
}

// sameFloat is bit equality, except that any NaN equals any NaN: the
// builtins pass NaN through but promise nothing about its payload.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestSupplyMatchesBranchingOracle: Supply equals the branching oracle on
// every pair of edge values — invalid bids (negative, NaN, ±Inf Δ and b)
// included, q ≤ 0, and q small enough that b/q overflows — and on random
// bit patterns and random ordinary bids.
func TestSupplyMatchesBranchingOracle(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	edges := []float64{
		0, math.Copysign(0, -1), tiny, -tiny, 1e-300, 1e-10, 0.5, 1, 2, 3.7, 1e10, 1e300,
		math.MaxFloat64, -1, -1e300, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	check := func(b Bid, q float64) {
		if got, want := b.Supply(q), branchingSupply(b, q); !sameFloat(got, want) {
			t.Fatalf("Supply(%v) of %+v = %v (%#x), want %v (%#x)",
				q, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, d := range edges {
		for _, b := range edges {
			for _, q := range edges {
				check(Bid{Delta: d, B: b}, q)
			}
		}
	}
	rng := rand.New(rand.NewSource(39))
	bits := func() float64 { return math.Float64frombits(rng.Uint64()) }
	for i := 0; i < 200000; i++ {
		check(Bid{Delta: bits(), B: bits()}, bits())
		check(Bid{Delta: 8 * rng.Float64(), B: 5 * rng.Float64()}, 2*rng.Float64())
	}
}

// TestClearIntoMatchesSupplyLoop: ClearInto's reductions, supplied watts
// and payout are a Supply loop in index order, bit for bit — over pools
// with Δ = 0, b = 0 and b = −0 bids, at a price-0 clear, interior clears
// and a saturated (infeasible) one.
func TestClearIntoMatchesSupplyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 7, 40, 41, 300, 5000} {
		ps := randomPool(rng, n)
		for i, p := range ps {
			if i%5 == 2 {
				p.Bid.B = math.Copysign(0, -1)
			}
		}
		ix, err := NewMarketIndex(ps)
		if err != nil {
			t.Fatal(err)
		}
		maxW := poolMaxW(ps)
		var willingW float64 // supplied at price 0 by b = ±0 bidders
		for _, p := range ps {
			if p.Bid.B == 0 {
				willingW += p.WattsPerCore * p.Bid.Delta
			}
		}
		var res ClearingResult
		for _, target := range []float64{0.5 * willingW, 1e-9 * maxW, 0.3 * maxW, 0.9 * maxW, maxW, 2 * maxW} {
			if !(target > 0) {
				continue
			}
			if err := ix.ClearInto(&res, target); err != nil {
				t.Fatal(err)
			}
			var supplied, total float64
			for i, p := range ps {
				d := p.Bid.Supply(res.Price)
				if math.Float64bits(res.Reductions[i]) != math.Float64bits(d) {
					t.Fatalf("n=%d target %v: reduction[%d] = %v, Supply gives %v", n, target, i, res.Reductions[i], d)
				}
				supplied += p.WattsPerCore * d
				total += d
			}
			if math.Float64bits(res.SuppliedW) != math.Float64bits(supplied) ||
				math.Float64bits(res.PayoutRate) != math.Float64bits(res.Price*total) {
				t.Fatalf("n=%d target %v: SuppliedW %v payout %v, Supply loop gives %v and %v",
					n, target, res.SuppliedW, res.PayoutRate, supplied, res.Price*total)
			}
			if target == 0.5*willingW && res.Price != 0 {
				t.Fatalf("n=%d: the willing bidders' half cleared at price %v, want 0", n, res.Price)
			}
			if target == 2*maxW && res.Feasible {
				t.Fatalf("n=%d: twice the ceiling cleared feasibly", n)
			}
		}
	}
}
