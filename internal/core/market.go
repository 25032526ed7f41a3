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
// survives as the reference function ClearBisect (bisect.go), which
// nothing in the system selects.
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
	"sync"
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
	// Clamped into [0, Δ] without a branch on the sign of Δ − b/q, which
	// is a coin flip per bid near the clearing price; NaN passes through
	// both builtins, and Δ − b/q is never −0 when Δ > 0.
	return min(max(b.Delta-b.B/q, 0), b.Delta)
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
	// Bid is the job's supply function (used by Clear; the last known bid
	// that seeds ClearInteractive, whose bidders replace it each round in a
	// working copy).
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

// Validate checks participant sanity for market clearing. Like
// Bid.Validate, the comparisons are written so NaN and ±Inf fail them:
// one NaN watts-per-core would turn every SuppliedW sum into NaN.
func (p *Participant) Validate() error {
	if !(p.Cores >= 0 && p.Cores <= math.MaxFloat64) {
		return fmt.Errorf("core: participant %s: cores must be finite and non-negative, got %v", p.JobID, p.Cores)
	}
	if !(p.WattsPerCore > 0 && p.WattsPerCore <= math.MaxFloat64) {
		return fmt.Errorf("core: participant %s: watts-per-core must be finite and positive, got %v", p.JobID, p.WattsPerCore)
	}
	if err := p.Bid.Validate(); err != nil {
		return fmt.Errorf("core: participant %s: %w", p.JobID, err)
	}
	return nil
}

// ErrNoParticipants is returned when the market is invoked with no
// participants but a positive reduction target.
var ErrNoParticipants = errors.New("core: no participants")

// ErrNaNTarget refuses a NaN reduction target at every clearing entry point
// (it used to clear "feasibly" at a NaN price); ±Inf keeps its ordered answer.
var ErrNaNTarget = errors.New("core: reduction target is NaN")

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
	// number of manager↔user exchanges for MPR-INT; 0 when an
	// interactive market has nothing to buy and asks nobody).
	Rounds int
	// Converged is true when an interactive market reached a stable
	// price within its round budget (always true for Clear).
	Converged bool
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
	if targetW <= 0 {
		return noReduction(len(ps), targetW), nil
	}
	if math.IsNaN(targetW) {
		return nil, ErrNaNTarget
	}
	if len(ps) == 0 {
		return nil, ErrNoParticipants
	}
	ix := oneShotIndexes.Get().(*MarketIndex)
	defer recycleIndex(ix)
	if err := ix.Reset(ps); err != nil {
		return nil, err
	}
	return ix.Clear(targetW)
}

// oneShotIndexes recycles the index Clear builds for a
// single solve: Reset reuses an index's arrays when they are large
// enough, and those arrays were most of what a fresh clear allocated.
// The result never aliases the index — ix.Clear allocates the result and
// its Reductions — so the index can go back as soon as the call returns.
var oneShotIndexes = sync.Pool{New: func() any { return new(MarketIndex) }}

// maxPooledIndex bounds the index recycleIndex keeps, in participants: the
// paper's 30,000-job scale fits, and one 100,000-participant clear does
// not leave 6 MB live (twice that in resident memory) behind every small
// clear that follows.
const maxPooledIndex = 1 << 15

func recycleIndex(ix *MarketIndex) {
	if cap(ix.watts) <= maxPooledIndex {
		oneShotIndexes.Put(ix)
	}
}

// noReduction is the outcome of a market with nothing to buy: a
// non-positive target clears at price 0 with every reduction 0.
func noReduction(n int, targetW float64) *ClearingResult {
	return &ClearingResult{
		Reductions: make([]float64, n),
		TargetW:    targetW,
		Feasible:   true,
		Rounds:     1,
		Converged:  true,
	}
}

func payout(price float64, reductions []float64) float64 {
	var total float64
	for _, d := range reductions {
		total += d
	}
	return price * total
}
