// Package core implements the paper's primary contribution: the MPR
// (Market-based Power Reduction) supply-function bidding market of
// Section III.
//
// HPC users submit parameterized supply functions
//
//	δ_m(q) = [Δ_m − b_m/q]⁺
//
// describing how much resource reduction (in cores) they offer at a given
// incentive price q. During a power emergency the HPC manager clears the
// market (problem MClr) by finding the minimal price at which the
// aggregate power reduction meets the target — a single-variable search,
// which is what makes MPR scale to tens of thousands of active jobs
// (Fig. 10). The default solver goes one step further than the paper's
// bisection: because every supply function is the same scalar-
// parameterized hyperbola, the clearing price has an exact closed form
// per activation segment (see MarketIndex in index.go); the bisection
// survives as a selectable cross-check (ClearBisection).
// Two market modes are provided: Clear (MPR-STAT, one-shot with
// static bids) and ClearInteractive (MPR-INT, iterative price/bid exchange
// that converges to the socially optimal reduction). The package also
// implements the paper's benchmark algorithms OPT (opt.go) and EQL
// (eql.go), the user bidding strategies of Section III-C (bidding.go), and
// market settlement/reward accounting (settle.go).
package core

import (
	"errors"
	"fmt"
	"math"

	"mpr/internal/solver"
)

// Bid is a user's supply function parameterization for one job:
// δ(q) = [Delta − B/q]⁺, both in absolute cores.
type Bid struct {
	// Delta is Δ, the maximum resource reduction the job supports, in
	// cores (per-core maximum fraction × allocated cores).
	Delta float64
	// B is the bidding parameter b expressing the job's reluctance: at
	// price q the job withholds B/q cores of its maximum.
	B float64
}

// Validate checks bid sanity: Δ and b finite and non-negative. The
// comparisons are written so NaN fails them (NaN < 0 is false); a NaN
// activation key would otherwise sort nowhere and clear the market at
// price 0.
func (b Bid) Validate() error {
	if !(b.Delta >= 0 && b.Delta <= math.MaxFloat64) {
		return fmt.Errorf("core: bid Δ must be finite and non-negative, got %v", b.Delta)
	}
	if !(b.B >= 0 && b.B <= math.MaxFloat64) {
		return fmt.Errorf("core: bid b must be finite and non-negative, got %v", b.B)
	}
	return nil
}

// Supply evaluates the supply function at price q: the resource reduction
// (cores) the job offers. It is non-negative, non-decreasing in q, and
// capped at Delta. At q = 0 a job with any reluctance (B > 0) offers
// nothing; a fully willing job (B = 0) offers its maximum at any price.
func (b Bid) Supply(q float64) float64 {
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

// ActivationPrice returns the lowest price at which the job starts
// supplying a positive reduction: b/Δ (0 for fully willing jobs).
func (b Bid) ActivationPrice() float64 {
	if b.Delta <= 0 {
		return 0
	}
	return b.B / b.Delta
}

// Participant is one running job taking part in overload handling.
type Participant struct {
	// JobID identifies the job for settlement.
	JobID string
	// Cores is the job's current core allocation.
	Cores float64
	// Bid is the job's supply function (used by Clear; replaced each
	// round in ClearInteractive).
	Bid Bid
	// WattsPerCore converts a resource reduction in cores into watts
	// saved — the established power-capping model P(δ) = δ·WattsPerCore
	// (Section III-A). For the paper's CPU model this is the 125 W
	// dynamic power per core.
	WattsPerCore float64
	// MaxFrac is the per-core maximum reduction fraction supported by
	// the job's application (Δ of its profile). Used by EQL and OPT.
	MaxFrac float64
	// Cost is the user's absolute cost of reducing δ cores, in
	// core-hours per hour of reduction. Required by OPT and settlement;
	// the market itself never reads it (that is the point of MPR).
	Cost func(deltaCores float64) float64
	// MarginalCost is dCost/dδ, required by OPT's solvers.
	MarginalCost func(deltaCores float64) float64
}

// MaxReduction returns the participant's absolute reduction bound in
// cores: MaxFrac × Cores.
func (p *Participant) MaxReduction() float64 { return p.MaxFrac * p.Cores }

// Validate checks participant sanity for market clearing.
func (p *Participant) Validate() error {
	if p.Cores < 0 {
		return fmt.Errorf("core: participant %s: negative cores", p.JobID)
	}
	if p.WattsPerCore <= 0 {
		return fmt.Errorf("core: participant %s: watts-per-core must be positive", p.JobID)
	}
	if err := p.Bid.Validate(); err != nil {
		return fmt.Errorf("core: participant %s: %w", p.JobID, err)
	}
	return nil
}

// ErrNoParticipants is returned when the market is invoked with no
// participants but a positive reduction target.
var ErrNoParticipants = errors.New("core: no participants")

// ClearingResult is the outcome of one market clearing.
type ClearingResult struct {
	// Price is the market clearing price q′ (incentive per unit resource
	// reduction per hour).
	Price float64
	// Reductions holds the resource reduction (cores) ordered as the
	// participants passed to Clear.
	Reductions []float64
	// SuppliedW is the total power reduction achieved.
	SuppliedW float64
	// TargetW echoes the requested power reduction.
	TargetW float64
	// Feasible reports whether the supply could meet the target; when
	// false every job is at its maximum reduction.
	Feasible bool
	// PayoutRate is the manager's total incentive payoff per hour of
	// reduction: q′·Σδ (core-hours per hour).
	PayoutRate float64
	// Rounds is the number of price iterations (1 for MPR-STAT; the
	// number of manager↔user exchanges for MPR-INT; 0 when ClearCapped
	// settles at the price cap without running a price search).
	Rounds int
	// Converged is true when an interactive market reached a stable
	// price within its round budget (always true for Clear).
	Converged bool
}

// ClearMode selects the MClr solver implementation.
type ClearMode int

const (
	// ClearAuto uses the default solver: the closed-form segmented fast
	// path (see MarketIndex).
	ClearAuto ClearMode = iota
	// ClearClosedForm forces the closed-form segmented solver.
	ClearClosedForm
	// ClearBisection forces the original O(M·log(1/tol)) bisection
	// solver — kept as an independent cross-check implementation for the
	// differential tests and benchmarks.
	ClearBisection
	// ClearStreaming routes through the continuously-clearing treap
	// engine (see StreamMarket): one-shot clears build the stream and
	// clear once; long-lived callers hold the StreamMarket directly for
	// O(log M) incremental re-clears per bid update.
	ClearStreaming
)

// String names the mode for tables and logs.
func (m ClearMode) String() string {
	switch m {
	case ClearAuto:
		return "auto"
	case ClearClosedForm:
		return "closed-form"
	case ClearBisection:
		return "bisection"
	case ClearStreaming:
		return "streaming"
	}
	return "unknown"
}

// priceCeiling returns the largest activation price across the pool
// (with a small positive floor): the price at which every participant
// has *begun* supplying. Callers that need the aggregate supply to
// saturate keep doubling from here — see bracketPrice — since each
// doubling halves every withheld amount b/q.
func priceCeiling(ps []*Participant) float64 {
	hi := 1e-6
	for _, p := range ps {
		if ap := p.Bid.ActivationPrice(); ap > hi {
			hi = ap
		}
	}
	return hi
}

// bracketPrice doubles q from start until supplyW(q) reaches level or q
// reaches cap. It is the shared bracketing step of the bisection path:
// the feasible branch brackets the clearing price (level = target, no
// cap), the infeasible branch finds the saturation price (level =
// maxW − ε, cap = 1e15).
func bracketPrice(supplyW func(float64) float64, start, level, cap float64) float64 {
	q := start
	for supplyW(q) < level && q < cap {
		q *= 2
	}
	return q
}

// Clear solves MClr (Eqns. (4)-(5)) for a static set of bids — the
// MPR-STAT market. It returns the minimal clearing price whose induced
// supply meets targetW and the per-participant reductions at that price.
//
// Complexity: O(M) to build the market index plus O(log M) for the
// exact per-segment price solve (see MarketIndex; reuse the index
// directly for amortized O(log M) clears). This is the scalability
// headline of the paper (Fig. 10: sub-second clearing at 30,000 active
// jobs), sharpened from the paper's bisection to a closed form.
func Clear(ps []*Participant, targetW float64) (*ClearingResult, error) {
	return ClearWithMode(ps, targetW, ClearAuto)
}

// ClearWithMode solves MClr with an explicit solver choice. ClearAuto
// and ClearClosedForm run the exact segmented solver; ClearBisection
// runs the original bisection as an independent cross-check. Both return
// the same prices, reductions, and feasibility up to the bisection
// tolerance (property-tested to 1e-9).
func ClearWithMode(ps []*Participant, targetW float64, mode ClearMode) (*ClearingResult, error) {
	if mode == ClearBisection {
		return clearBisect(ps, targetW)
	}
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
	if len(ps) == 0 {
		return nil, ErrNoParticipants
	}
	if mode == ClearStreaming {
		sm, err := NewStreamMarket(ps, targetW)
		if err != nil {
			return nil, err
		}
		met().clearsStream.Inc()
		if err := sm.ClearInto(res); err != nil {
			return nil, err
		}
		return res, nil
	}
	ix, err := NewMarketIndex(ps)
	if err != nil {
		return nil, err
	}
	if err := ix.ClearInto(res, targetW); err != nil {
		return nil, err
	}
	return res, nil
}

// clearBisect is the original scalar-bisection MClr solver, O(M) per
// supply evaluation and O(M·log(1/tol)) overall. It is retained verbatim
// in behaviour as the cross-check path for the closed-form solver.
func clearBisect(ps []*Participant, targetW float64) (*ClearingResult, error) {
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
	maxW := 0.0
	for _, p := range ps {
		maxW += p.WattsPerCore * p.Bid.Delta
	}

	met().clearsBisect.Inc()
	met().priceSearches.Inc()
	if maxW < targetW {
		// Infeasible: every job contributes its maximum; price settles
		// at the point where supply has saturated.
		res.Feasible = false
		q := bracketPrice(supplyW, priceCeiling(ps), maxW-1e-9, 1e15)
		res.Price = q
		for i, p := range ps {
			res.Reductions[i] = p.Bid.Supply(q)
			res.SuppliedW += p.WattsPerCore * res.Reductions[i]
		}
		res.PayoutRate = payout(res.Price, res.Reductions)
		return res, nil
	}

	// Bracket the clearing price, then bisect for the minimal feasible q.
	// The tolerance is tight (1e-13 relative to the bracket) so this path
	// stays a meaningful 1e-9-level cross-check of the closed form.
	lo := 0.0
	hi := bracketPrice(supplyW, priceCeiling(ps), targetW, math.Inf(1))
	q, ok := solver.BisectMin(func(q float64) float64 { return supplyW(q) - targetW }, lo, hi, 1e-13*hi+1e-15)
	if !ok {
		// Cannot happen: maxW >= target and supply(hi) >= target.
		return nil, fmt.Errorf("core: clearing bisection failed unexpectedly")
	}
	res.Price = q
	for i, p := range ps {
		res.Reductions[i] = p.Bid.Supply(q)
		res.SuppliedW += p.WattsPerCore * res.Reductions[i]
	}
	res.PayoutRate = payout(res.Price, res.Reductions)
	return res, nil
}

// ClearCapped clears the market under a manager-side price ceiling — the
// affordability bound of Table I (the manager can pay at most the added
// capacity per core-hour of cutback, e.g. 32× at 20% oversubscription).
// If the clearing price would exceed priceCap, the market settles at the
// cap with whatever supply the capped price buys and reports the shortfall
// through Feasible=false; the manager must cover the remainder by direct
// capping.
func ClearCapped(ps []*Participant, targetW, priceCap float64) (*ClearingResult, error) {
	return ClearCappedWithMode(ps, targetW, priceCap, ClearAuto)
}

// ClearCappedWithMode is ClearCapped with an explicit solver choice. The
// closed-form modes evaluate the aggregate supply at priceCap first —
// an O(log M) index lookup — and only run a full price search when the
// cap does not bind; the capped branch therefore performs no MClr solve
// at all (observable through Rounds = 0 and the MetricPriceSearches /
// MetricCappedShortCircuits counters).
// ClearBisection reproduces the original clear-then-discard behaviour.
func ClearCappedWithMode(ps []*Participant, targetW, priceCap float64, mode ClearMode) (*ClearingResult, error) {
	if priceCap <= 0 {
		return nil, fmt.Errorf("core: price cap must be positive, got %v", priceCap)
	}
	capResult := func(res *ClearingResult) *ClearingResult {
		res.Price = priceCap
		res.SuppliedW = 0
		for i, p := range ps {
			res.Reductions[i] = p.Bid.Supply(priceCap)
			res.SuppliedW += p.WattsPerCore * res.Reductions[i]
		}
		res.PayoutRate = payout(priceCap, res.Reductions)
		res.Feasible = res.SuppliedW >= targetW-1e-9
		return res
	}
	if mode == ClearBisection {
		res, err := clearBisect(ps, targetW)
		if err != nil {
			return nil, err
		}
		if res.Price <= priceCap {
			return res, nil
		}
		return capResult(res), nil
	}
	if targetW <= 0 {
		return &ClearingResult{
			Reductions: make([]float64, len(ps)),
			TargetW:    targetW,
			Feasible:   true,
			Rounds:     1,
			Converged:  true,
		}, nil
	}
	if len(ps) == 0 {
		return nil, ErrNoParticipants
	}
	ix, err := NewMarketIndex(ps)
	if err != nil {
		return nil, err
	}
	if ix.SupplyW(priceCap) < targetW {
		// The cap binds: no clearing price at or below it can meet the
		// target, so settle at the cap directly without a price search.
		met().cappedShort.Inc()
		res := &ClearingResult{
			Reductions: make([]float64, len(ps)),
			TargetW:    targetW,
			Rounds:     0,
			Converged:  true,
		}
		return capResult(res), nil
	}
	// The cap is loose: the minimal clearing price is ≤ priceCap.
	res := &ClearingResult{
		Reductions: make([]float64, len(ps)),
		TargetW:    targetW,
		Feasible:   true,
		Rounds:     1,
		Converged:  true,
	}
	if err := ix.ClearInto(res, targetW); err != nil {
		return nil, err
	}
	return res, nil
}

func payout(price float64, reductions []float64) float64 {
	var total float64
	for _, d := range reductions {
		total += d
	}
	return price * total
}
