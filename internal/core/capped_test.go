package core_test

import (
	"math"
	"testing"

	"mpr/internal/check"
	"mpr/internal/core"
)

// Boundary behaviour of the price-capped market, pinned with hand-solved
// numbers. Pool: two jobs at 100 W/core — activation prices 0.5 and 1.5,
// aggregate supply S(q) = 100·(4 − 2/q) on [0.5, 1.5), plus
// 100·(2 − 3/q) from 1.5 on; capacity 600 W.
func cappedBoundaryPool() []*core.Participant {
	return []*core.Participant{
		{JobID: "a", Cores: 8, Bid: core.Bid{Delta: 4, B: 2}, WattsPerCore: 100, MaxFrac: 0.5},
		{JobID: "b", Cores: 4, Bid: core.Bid{Delta: 2, B: 3}, WattsPerCore: 100, MaxFrac: 0.5},
	}
}

// cappedSolvers is the table every boundary case runs over: ClearCapped
// and the clear-then-discard bisection reference (an external test
// package, so it may import the harness that holds it).
var cappedSolvers = []struct {
	name       string
	clear      func(ps []*core.Participant, targetW float64) (*core.ClearingResult, error)
	capped     func(ps []*core.Participant, targetW, priceCap float64) (*core.ClearingResult, error)
	closedForm bool
}{
	{"closed-form", core.Clear, core.ClearCapped, true},
	{"bisection", core.ClearBisect, check.ClearCappedBisect, false},
}

// Target exactly at the cap-limited supply: S(1) = 200 W, so a target of
// 200 W under a cap of 1 clears feasibly at exactly the cap — the cap
// does not bind, and the closed form runs a full price search.
func TestClearCappedTargetExactlyAtCapSupply(t *testing.T) {
	ps := cappedBoundaryPool()
	for _, sv := range cappedSolvers {
		res, err := sv.capped(ps, 200, 1.0)
		if err != nil {
			t.Fatalf("%v: %v", sv.name, err)
		}
		if !res.Feasible {
			t.Errorf("%v: target exactly at capped supply reported infeasible", sv.name)
		}
		if math.Abs(res.Price-1.0) > 1e-9 {
			t.Errorf("%v: price %v, want 1.0", sv.name, res.Price)
		}
		if math.Abs(res.SuppliedW-200) > 1e-6 {
			t.Errorf("%v: supplied %v, want 200", sv.name, res.SuppliedW)
		}
		if sv.closedForm && res.Rounds != 1 {
			t.Errorf("closed form ran %d rounds, want a full (non-short-circuit) search", res.Rounds)
		}
	}
}

// Cap below every activation price: the market trades nothing — zero
// supply, zero payout, infeasible, price pinned at the cap. The closed
// form must detect this from one supply lookup (Rounds = 0, no search).
func TestClearCappedBelowAllActivations(t *testing.T) {
	ps := cappedBoundaryPool() // lowest activation price 0.5
	for _, sv := range cappedSolvers {
		res, err := sv.capped(ps, 150, 0.25)
		if err != nil {
			t.Fatalf("%v: %v", sv.name, err)
		}
		if res.Feasible {
			t.Errorf("%v: zero-trade market reported feasible", sv.name)
		}
		if res.Price != 0.25 {
			t.Errorf("%v: price %v, want the cap 0.25", sv.name, res.Price)
		}
		if res.SuppliedW != 0 || res.PayoutRate != 0 {
			t.Errorf("%v: supplied %v, payout %v, want 0, 0", sv.name, res.SuppliedW, res.PayoutRate)
		}
		for i, d := range res.Reductions {
			if d != 0 {
				t.Errorf("%v: reduction[%d] = %v, want 0", sv.name, i, d)
			}
		}
		if sv.closedForm && res.Rounds != 0 {
			t.Errorf("closed form ran %d rounds, want 0 (cap short-circuit)", res.Rounds)
		}
	}
}

// Cap exactly equal to the uncapped clearing price: the market clears
// normally and feasibly, settling at the cap itself.
func TestClearCappedAtUncappedPrice(t *testing.T) {
	ps := cappedBoundaryPool()
	target := 250.0
	for _, sv := range cappedSolvers {
		un, err := sv.clear(ps, target)
		if err != nil {
			t.Fatalf("%v: uncapped: %v", sv.name, err)
		}
		if !un.Feasible {
			t.Fatalf("%v: uncapped clear infeasible", sv.name)
		}
		res, err := sv.capped(ps, target, un.Price)
		if err != nil {
			t.Fatalf("%v: %v", sv.name, err)
		}
		if !res.Feasible {
			t.Errorf("%v: cap at the clearing price reported infeasible", sv.name)
		}
		if math.Abs(res.Price-un.Price) > 1e-9*(1+un.Price) {
			t.Errorf("%v: price %v, want the uncapped price %v", sv.name, res.Price, un.Price)
		}
		if res.SuppliedW < target-1e-6 {
			t.Errorf("%v: supplied %v short of %v", sv.name, res.SuppliedW, target)
		}
	}
}

// A non-positive cap is a caller error for both solvers.
func TestClearCappedRejectsBadCap(t *testing.T) {
	ps := cappedBoundaryPool()
	for _, sv := range cappedSolvers {
		for _, cap := range []float64{0, -1} {
			if _, err := sv.capped(ps, 100, cap); err == nil {
				t.Errorf("%v: cap %v accepted", sv.name, cap)
			}
		}
	}
}
