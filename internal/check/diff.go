package check

import (
	"fmt"
	"math"

	"mpr/internal/core"
	"mpr/internal/runner"
	"mpr/internal/telemetry"
)

// DiffStats summarizes a differential run for reporting: how many
// instances ran and how the generated shapes were distributed, so a
// passing run can be audited for coverage rather than trusted blindly.
type DiffStats struct {
	Instances    int // generated instances executed
	Participants int // total participants across all instances
	Infeasible   int // instances whose target exceeded capacity
	Singleton    int // degenerate single-participant markets
	Updates      int // streaming deltas applied (DiffStream only)
	Emergencies  int // declared emergencies across instances (DiffEngines only)
	SimSlots     int // simulated slots across instances (DiffEngines only)
	Spans        int // trace spans compared across instances (DiffEngines only)

	// Cost-ordering aggregates (DiffMarketVsOPT only): total cost per
	// algorithm summed over all instances, and the count of instances
	// where STAT cost exceeded EQL's. The paper's STAT ≤ EQL claim is
	// statistical, so it is asserted on these aggregates.
	OPTCost      float64
	StatCost     float64
	EQLCost      float64
	StatAboveEQL int
}

// add folds o into st field by field. The differential drivers run
// instances in parallel and fold the per-instance stats in ascending
// instance order, which performs the same additions in the same order
// as the serial loop did — the aggregates (including the float cost
// sums) are bit-identical at any worker count.
func (st *DiffStats) add(o DiffStats) {
	st.Instances += o.Instances
	st.Participants += o.Participants
	st.Infeasible += o.Infeasible
	st.Singleton += o.Singleton
	st.Updates += o.Updates
	st.Emergencies += o.Emergencies
	st.SimSlots += o.SimSlots
	st.Spans += o.Spans
	st.OPTCost += o.OPTCost
	st.StatCost += o.StatCost
	st.EQLCost += o.EQLCost
	st.StatAboveEQL += o.StatAboveEQL
}

// foldStats reduces per-instance stats in index order (see add).
func foldStats(parts []DiffStats) DiffStats {
	var st DiffStats
	for _, p := range parts {
		st.add(p)
	}
	return st
}

// instanceSeed derives the per-instance seed from the base seed. A
// failing instance is reproduced by NewGen(instanceSeed(base, i)) alone;
// the multiplier decorrelates neighboring streams (LCG constant).
// Instances are fully determined by their seed, never by execution
// order, which is what lets the drivers fan out across the runner pool.
func instanceSeed(base int64, i int) int64 {
	return base + int64(i)*1664525
}

// DiffSolvers cross-checks the closed-form segmented solver (core.Clear)
// against the bisection reference (core.ClearBisect) on generated
// instances of up to maxN participants: both must agree on feasibility,
// clearing price, per-participant reductions, and supplied power to the
// harness tolerance, and each result must independently satisfy the
// full invariant catalog. The returned error, if any, names the
// reproducing instance seed.
func DiffSolvers(baseSeed int64, instances, maxN int) (DiffStats, error) {
	parts, err := runner.MapN(0, instances, func(i int) (DiffStats, error) {
		seed := instanceSeed(baseSeed, i)
		g := NewGen(seed)
		ps := g.Pool(g.PoolSize(maxN))
		target := g.Target(MaxSupplyW(ps))
		var st DiffStats
		if err := diffOneClear(ps, target, &st); err != nil {
			return st, fmt.Errorf("check: instance seed %d (base %d, instance %d): %w", seed, baseSeed, i, err)
		}
		return st, nil
	})
	if err != nil {
		return DiffStats{}, err
	}
	return foldStats(parts), nil
}

func diffOneClear(ps []*core.Participant, target float64, st *DiffStats) error {
	st.Instances++
	st.Participants += len(ps)
	if len(ps) == 1 {
		st.Singleton++
	}
	cf, err := core.Clear(ps, target)
	if err != nil {
		return fmt.Errorf("closed form: %v", err)
	}
	bi, err := core.ClearBisect(ps, target)
	if err != nil {
		return fmt.Errorf("bisection: %v", err)
	}
	if err := CheckClearing(ps, target, cf); err != nil {
		return fmt.Errorf("closed form violates invariants: %v", err)
	}
	if err := CheckClearing(ps, target, bi); err != nil {
		return fmt.Errorf("bisection violates invariants: %v", err)
	}
	if !cf.Feasible {
		st.Infeasible++
	}
	return compareClears(ps, target, cf, bi)
}

// compareClears asserts solver agreement. Prices are compared only away
// from the saturation boundary: within 1e-9 of full capacity the
// clearing price diverges to a solver-specific saturation sentinel
// (supply is flat there to machine precision), so the meaningful
// agreement is on feasibility, supplied power, and reductions.
func compareClears(ps []*core.Participant, target float64, a, b *core.ClearingResult) error {
	maxW := MaxSupplyW(ps)
	nearSaturation := target >= maxW*(1-Tol)
	if !nearSaturation {
		if a.Feasible != b.Feasible {
			return fmt.Errorf("feasibility %v vs %v (target %v, capacity %v)", a.Feasible, b.Feasible, target, maxW)
		}
		if a.Feasible {
			// The bisection's guarantee is bracket-relative (1e-13·hi
			// with hi ≤ max(maxActivation, 2q′)), so the honest price
			// tolerance carries an activation-scale term: it matters
			// only when the clearing price is orders of magnitude below
			// the largest activation price (tiny targets under
			// reluctant pools).
			var maxAct float64
			for _, p := range ps {
				if p.Bid.Delta > 0 {
					if act := p.Bid.ActivationPrice(); act > maxAct {
						maxAct = act
					}
				}
			}
			tol := Tol*(1+a.Price) + 1e-12*math.Max(maxAct, 2*a.Price)
			if d := math.Abs(a.Price - b.Price); d > tol {
				return fmt.Errorf("price %v vs %v (Δ %.3g > %.3g)", a.Price, b.Price, d, tol)
			}
		}
	}
	if d := math.Abs(a.SuppliedW - b.SuppliedW); d > Tol*(1+maxW) {
		return fmt.Errorf("supplied %v vs %v", a.SuppliedW, b.SuppliedW)
	}
	rtol := Tol
	if nearSaturation {
		// At the capacity boundary the two sentinel prices can differ by
		// orders of magnitude; each participant's withheld amount b/q has
		// only been driven below the solvers' saturation thresholds.
		rtol = saturationTol
	}
	for i := range ps {
		tol := rtol * (1 + ps[i].Bid.Delta)
		if d := math.Abs(a.Reductions[i] - b.Reductions[i]); d > tol {
			return fmt.Errorf("reduction[%d] %v vs %v (Δ %.3g)", i, a.Reductions[i], b.Reductions[i], d)
		}
	}
	return nil
}

// DiffMarketVsOPT cross-checks the interactive market (MPR-INT with
// exact rational bidders) against the OPT KKT dual fast path on analytic
// quadratic-cost pools: with uniform watts-per-core and price-taking
// bidders the market equilibrium must coincide with the social optimum
// (the Johari-Tsitsiklis efficiency result the paper builds on). Also
// verifies the paper's OPT ≤ STAT ≤ EQL total-cost ordering with
// cooperative static bids on the same pool.
func DiffMarketVsOPT(baseSeed int64, instances, maxN int) (DiffStats, error) {
	parts, err := runner.MapN(0, instances, func(i int) (DiffStats, error) {
		var st DiffStats
		seed := instanceSeed(baseSeed, i)
		g := NewGen(seed)
		n := 1 + g.rng.Intn(maxN)
		ps, bidders, costs := g.CostPool(n)
		// Interior target band: every algorithm (including EQL's uniform
		// fraction, bounded by the pool-uniform MaxFrac) stays feasible,
		// and the MPR-INT price iteration stays contractive — its map
		// slope at the fixed point is 1 − Σw(A/(2C2)+δ)/Σw(Max−δ), which
		// the [0.15, 0.6]·capacity band keeps inside (−1, 1) for the
		// generator's coefficient ranges.
		var capW float64
		for _, p := range ps {
			capW += p.WattsPerCore * p.MaxReduction()
		}
		target := capW * (0.15 + 0.45*g.rng.Float64())
		if err := diffOneMarketVsOPT(ps, bidders, costs, target, &st); err != nil {
			return st, fmt.Errorf("check: instance seed %d (base %d, instance %d): %w", seed, baseSeed, i, err)
		}
		return st, nil
	})
	if err != nil {
		return DiffStats{}, err
	}
	return foldStats(parts), nil
}

// clearInteractiveTight is core.ClearInteractive's market on an 800-round
// budget and a 1e-9 tolerance: the differential holds OPT against the
// converged fixed point, not against one stopped at 1e-6.
func clearInteractiveTight(ps []*core.Participant, bidders []core.Bidder, target float64) (*core.ClearingResult, error) {
	return core.Iterate(ps, target, 800, 1e-9, nil,
		func(_ int, q float64, bids []core.Bid, _ *telemetry.ActiveSpan) error {
			for i, b := range bidders {
				bids[i] = b.RespondBid(q)
			}
			return nil
		})
}

func diffOneMarketVsOPT(ps []*core.Participant, bidders []core.Bidder, costs []QuadCost, target float64, st *DiffStats) error {
	st.Instances++
	st.Participants += len(ps)
	if len(ps) == 1 {
		st.Singleton++
	}
	intRes, err := clearInteractiveTight(ps, bidders, target)
	if err != nil {
		return fmt.Errorf("MPR-INT: %v", err)
	}
	if !intRes.Converged {
		return fmt.Errorf("MPR-INT did not converge in %d rounds (price %v)", intRes.Rounds, intRes.Price)
	}
	if intRes.SuppliedW < target-1e-6*(1+target) {
		return fmt.Errorf("MPR-INT supplied %v short of target %v", intRes.SuppliedW, target)
	}
	opt, err := core.SolveOPT(ps, target, core.OPTDual)
	if err != nil {
		return fmt.Errorf("OPT dual: %v", err)
	}
	if err := CheckAllocation(ps, target, opt); err != nil {
		return fmt.Errorf("OPT violates invariants: %v", err)
	}
	if !opt.Feasible {
		return fmt.Errorf("OPT infeasible at interior target %v", target)
	}
	// Equilibrium efficiency: the interactive allocation matches OPT's
	// KKT point participant by participant, and its total cost matches
	// the optimum. Tolerances reflect the price-iteration and dual-
	// bisection stopping rules, not model disagreement.
	var intCost float64
	for i := range ps {
		intCost += costs[i].Cost(intRes.Reductions[i])
		bound := 1e-5 * (1 + costs[i].Max)
		if d := math.Abs(intRes.Reductions[i] - opt.Reductions[i]); d > bound {
			return fmt.Errorf("allocation[%d]: MPR-INT %v vs OPT %v (Δ %.3g)", i, intRes.Reductions[i], opt.Reductions[i], d)
		}
	}
	if opt.TotalCost > 0 {
		ratio := intCost / opt.TotalCost
		if ratio < 1-1e-6 {
			return fmt.Errorf("MPR-INT cost %v below OPT %v — OPT not optimal", intCost, opt.TotalCost)
		}
		if ratio > 1+1e-4 {
			return fmt.Errorf("MPR-INT cost %v above OPT %v (ratio %v)", intCost, opt.TotalCost, ratio)
		}
	}
	// Cost ordering with cooperative static bids on the same pool.
	stat, err := core.Clear(ps, target)
	if err != nil {
		return fmt.Errorf("MPR-STAT: %v", err)
	}
	if err := CheckClearing(ps, target, stat); err != nil {
		return fmt.Errorf("MPR-STAT violates invariants: %v", err)
	}
	eql, err := core.SolveEQL(ps, target)
	if err != nil {
		return fmt.Errorf("EQL: %v", err)
	}
	if err := CheckAllocation(ps, target, eql); err != nil {
		return fmt.Errorf("EQL violates invariants: %v", err)
	}
	if stat.Feasible && eql.Feasible {
		var statCost float64
		for i := range ps {
			statCost += costs[i].Cost(stat.Reductions[i])
		}
		if err := CheckCostOrdering(opt.TotalCost, statCost, eql.TotalCost); err != nil {
			return err
		}
		st.OPTCost += opt.TotalCost
		st.StatCost += statCost
		st.EQLCost += eql.TotalCost
		if statCost > eql.TotalCost {
			st.StatAboveEQL++
		}
	}
	return nil
}
