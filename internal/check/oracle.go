package check

import (
	"fmt"
	"math"

	"mpr/internal/core"
)

// Tol is the harness's default relative tolerance. It matches the
// guarantee of the bisection cross-check path (bracket-relative 1e-13,
// asserted to 1e-9) and the closed form's exactness margin.
const Tol = 1e-9

// saturationTol is the per-participant slack allowed on infeasible
// clears, where the price is a saturation sentinel and the withheld
// amount b/q has only been driven below the solvers' 1e-9 W aggregate.
const saturationTol = 1e-6

// priceUpperBound caps any legitimate clearing or saturation price.
// Infeasible saturation sentinels stop doubling at 1e15, but the
// bisection's feasible branch brackets with no cap for targets at the
// capacity boundary, settling where the withheld aggregate Σwb/q rounds
// below one ULP of the capacity sum — ~1e16 for the generator's ranges.
// 1e18 bounds both with two orders of slack while still rejecting
// runaway prices.
const priceUpperBound = 1e18

// MaxSupplyW returns the pool's aggregate supply ceiling Σ W·Δ in watts
// — the market's total capacity.
func MaxSupplyW(ps []*core.Participant) float64 {
	var w float64
	for _, p := range ps {
		w += p.WattsPerCore * p.Bid.Delta
	}
	return w
}

// SupplyWAt evaluates the naive O(M) aggregate supply at price q — the
// reference implementation the indexed solvers are checked against.
func SupplyWAt(ps []*core.Participant, q float64) float64 {
	var w float64
	for _, p := range ps {
		w += p.WattsPerCore * p.Bid.Supply(q)
	}
	return w
}

// CheckClearing verifies the full invariant catalog for a one-shot
// market clearing (MPR-STAT, either solver) of ps at targetW:
//
//   - structural sanity: finite price and reductions, one reduction per
//     participant, price ≥ 0 and below the saturation bound;
//   - per-participant bounds: every reduction in [0, Δ];
//   - activation structure: positive reductions only at or above the
//     participant's activation price, zero reductions only at or below it;
//   - bookkeeping: SuppliedW = Σ W·δ and PayoutRate = q′·Σδ;
//   - feasible clears meet the target, and the price is minimal —
//     supply just below it falls short of the target;
//   - infeasible clears saturate every participant at its Δ.
//
// A nil error means every invariant held.
func CheckClearing(ps []*core.Participant, targetW float64, res *core.ClearingResult) error {
	if err := checkStructure(ps, targetW, res); err != nil {
		return err
	}
	if targetW <= 0 {
		if res.Price != 0 {
			return fmt.Errorf("zero target cleared at price %v", res.Price)
		}
		return nil
	}
	if res.Feasible {
		if res.SuppliedW < targetW-Tol*(1+targetW) {
			return fmt.Errorf("feasible clear supplied %v short of target %v", res.SuppliedW, targetW)
		}
		// Price minimality: the aggregate supply is continuous and
		// non-decreasing, so any strictly smaller price must fall short.
		// Skip the probe at saturation-scale prices, where the withheld
		// term has already rounded away and supply is flat.
		if res.Price > 0 && res.Price < 1e12 {
			below := SupplyWAt(ps, res.Price*(1-1e-6))
			if below > targetW*(1+Tol)+Tol {
				return fmt.Errorf("price %v not minimal: supply %v at %v still meets target %v",
					res.Price, below, res.Price*(1-1e-6), targetW)
			}
		}
	} else {
		for i, p := range ps {
			if math.Abs(res.Reductions[i]-p.Bid.Delta) > saturationTol*(1+p.Bid.Delta) {
				return fmt.Errorf("infeasible clear: participant %d at %v, not saturated at Δ=%v",
					i, res.Reductions[i], p.Bid.Delta)
			}
		}
	}
	return nil
}

// checkStructure holds the invariants common to every clearing result:
// shape, finiteness, per-participant bounds, activation consistency, and
// the SuppliedW / PayoutRate bookkeeping identities.
func checkStructure(ps []*core.Participant, targetW float64, res *core.ClearingResult) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	if len(res.Reductions) != len(ps) {
		return fmt.Errorf("%d reductions for %d participants", len(res.Reductions), len(ps))
	}
	if math.IsNaN(res.Price) || math.IsInf(res.Price, 0) {
		return fmt.Errorf("non-finite price %v", res.Price)
	}
	if res.Price < 0 {
		return fmt.Errorf("negative price %v", res.Price)
	}
	if res.Price > priceUpperBound {
		return fmt.Errorf("price %v beyond the saturation bound", res.Price)
	}
	var supplied, total float64
	for i, p := range ps {
		d := res.Reductions[i]
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("participant %d: non-finite reduction %v", i, d)
		}
		if d < 0 {
			return fmt.Errorf("participant %d: negative reduction %v", i, d)
		}
		if d > p.Bid.Delta*(1+Tol)+Tol {
			return fmt.Errorf("participant %d: reduction %v exceeds Δ=%v", i, d, p.Bid.Delta)
		}
		if targetW > 0 {
			act := p.Bid.ActivationPrice()
			if d > Tol && act > res.Price*(1+Tol)+Tol {
				return fmt.Errorf("participant %d supplies %v below its activation price %v (price %v)",
					i, d, act, res.Price)
			}
			if d == 0 && p.Bid.Delta > 0 && act < res.Price*(1-Tol)-Tol {
				return fmt.Errorf("participant %d supplies nothing at price %v despite activation %v",
					i, res.Price, act)
			}
		}
		supplied += p.WattsPerCore * d
		total += d
	}
	if math.Abs(supplied-res.SuppliedW) > Tol*(1+math.Abs(supplied)) {
		return fmt.Errorf("SuppliedW %v, recomputed %v", res.SuppliedW, supplied)
	}
	if want := res.Price * total; math.Abs(res.PayoutRate-want) > Tol*(1+math.Abs(want)) {
		return fmt.Errorf("PayoutRate %v, recomputed q′·Σδ = %v", res.PayoutRate, want)
	}
	if res.TargetW != targetW {
		return fmt.Errorf("TargetW %v, requested %v", res.TargetW, targetW)
	}
	return nil
}

// CheckAllocation verifies a centralized allocation (OPT or EQL):
// per-participant reductions within [0, MaxReduction], the SuppliedW
// bookkeeping identity, cost consistency against the participants' cost
// functions, and target satisfaction when the result claims feasibility.
func CheckAllocation(ps []*core.Participant, targetW float64, res *core.AllocationResult) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	if len(res.Reductions) != len(ps) {
		return fmt.Errorf("%d reductions for %d participants", len(res.Reductions), len(ps))
	}
	var supplied, cost float64
	for i, p := range ps {
		d := res.Reductions[i]
		if math.IsNaN(d) || math.IsInf(d, 0) || d < -Tol {
			return fmt.Errorf("participant %d: bad reduction %v", i, d)
		}
		if max := p.MaxReduction(); d > max*(1+Tol)+Tol {
			return fmt.Errorf("participant %d: reduction %v exceeds bound %v", i, d, max)
		}
		supplied += p.WattsPerCore * d
		if p.Cost != nil {
			cost += p.Cost(d)
		}
	}
	if math.Abs(supplied-res.SuppliedW) > 1e-6*(1+math.Abs(supplied)) {
		return fmt.Errorf("SuppliedW %v, recomputed %v", res.SuppliedW, supplied)
	}
	if math.Abs(cost-res.TotalCost) > 1e-6*(1+math.Abs(cost)) {
		return fmt.Errorf("TotalCost %v, recomputed %v", res.TotalCost, cost)
	}
	if res.Feasible && targetW > 0 && res.SuppliedW < targetW-1e-6*(1+targetW) {
		return fmt.Errorf("feasible allocation supplied %v short of target %v", res.SuppliedW, targetW)
	}
	return nil
}

// CheckCostOrdering verifies the theorem half of the paper's Fig. 9
// total-cost ordering on a pool where all algorithms found feasible
// allocations: OPT ≤ STAT and OPT ≤ EQL, since any feasible allocation
// costs at least the optimum (enforced to solver tolerance). The
// remaining STAT ≤ EQL leg is the paper's *empirical* claim — individual
// adversarial pools can invert it — so the differential driver asserts
// it in aggregate over the whole run (DiffStats.StatCost vs EQLCost)
// rather than per instance.
func CheckCostOrdering(optCost, statCost, eqlCost float64) error {
	if optCost > statCost*(1+1e-6)+1e-9 {
		return fmt.Errorf("OPT cost %v exceeds STAT %v — OPT not optimal", optCost, statCost)
	}
	if optCost > eqlCost*(1+1e-6)+1e-9 {
		return fmt.Errorf("OPT cost %v exceeds EQL %v — OPT not optimal", optCost, eqlCost)
	}
	return nil
}
