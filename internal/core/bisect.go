package core

import (
	"fmt"
	"math"

	"mpr/internal/solver"
)

// ClearBisect is the paper's MClr algorithm (Section III): bracket the
// clearing price by doubling, then bisect the aggregate supply for the
// minimal feasible price — O(M) per supply evaluation, O(M·log(1/tol))
// overall. Nothing in the system selects it; it is the independent
// reference the differential tests hold Clear to (1e-9) and the
// "bisect" column of Fig. 10, and it records no telemetry.
func ClearBisect(ps []*Participant, targetW float64) (*ClearingResult, error) {
	res := &ClearingResult{
		Reductions: make([]float64, len(ps)),
		TargetW:    targetW,
		Feasible:   true,
		Rounds:     1,
		Converged:  true,
	}
	if targetW <= 0 {
		return res, nil
	}
	if math.IsNaN(targetW) {
		return nil, ErrNaNTarget
	}
	if len(ps) == 0 {
		return nil, ErrNoParticipants
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}

	supplyW := func(q float64) float64 {
		var w float64
		for _, p := range ps {
			w += p.WattsPerCore * p.Bid.Supply(q)
		}
		return w
	}
	// bracket doubles q until supplyW(q) reaches level or q reaches cap.
	bracket := func(q, level, cap float64) float64 {
		for supplyW(q) < level && q < cap {
			q *= 2
		}
		return q
	}
	// Start from the largest activation price (with a small positive
	// floor): every participant has begun supplying there, and each
	// doubling halves every withheld amount b/q.
	start, maxW := 1e-6, 0.0
	for _, p := range ps {
		start = math.Max(start, p.Bid.ActivationPrice())
		maxW += p.WattsPerCore * p.Bid.Delta
	}

	if maxW < targetW {
		// Infeasible: every job contributes its maximum; price settles
		// at the point where supply has saturated.
		res.Feasible = false
		res.Price = bracket(start, maxW-1e-9, 1e15)
	} else {
		// The tolerance is tight (1e-13 relative to the bracket) so this
		// stays a meaningful 1e-9-level cross-check of the closed form.
		hi := bracket(start, targetW, math.Inf(1))
		q, ok := solver.BisectMin(func(q float64) float64 { return supplyW(q) - targetW }, 0, hi, 1e-13*hi+1e-15)
		if !ok {
			// Cannot happen: maxW >= target and supply(hi) >= target.
			return nil, fmt.Errorf("core: clearing bisection failed unexpectedly")
		}
		res.Price = q
	}
	for i, p := range ps {
		res.Reductions[i] = p.Bid.Supply(res.Price)
		res.SuppliedW += p.WattsPerCore * res.Reductions[i]
	}
	res.PayoutRate = payout(res.Price, res.Reductions)
	return res, nil
}
