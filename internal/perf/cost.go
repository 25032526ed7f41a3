package perf

import (
	"math"

	"mpr/internal/solver"
)

// CostShape selects how user-perceived cost grows with extra execution
// (Section III-C of the paper).
type CostShape int

const (
	// CostLinear is the paper's default: cost = α · ExtraExecution.
	CostLinear CostShape = iota
	// CostQuadratic grows quadratically with the performance loss:
	// cost = α · ExtraExecution².
	CostQuadratic
)

// String implements fmt.Stringer.
func (s CostShape) String() string {
	switch s {
	case CostLinear:
		return "linear"
	case CostQuadratic:
		return "quadratic"
	default:
		return "unknown"
	}
}

// CostModel is a user's perceived cost of per-core resource reduction for
// one application (Eqn. (6)): C(δ) = α·(L(δ) − L(0)) with the extra
// execution as the performance-loss measure. Alpha ≥ 1 encodes the user's
// relative valuation of their job's performance.
type CostModel struct {
	Profile *Profile
	Alpha   float64
	Shape   CostShape
}

// NewCostModel builds a cost model; alpha values below 1 are raised to 1,
// matching the paper's constraint α ≥ 1. A NaN alpha fails the floor too
// and is raised to 1.
func NewCostModel(p *Profile, alpha float64, shape CostShape) *CostModel {
	if !(alpha >= 1) {
		alpha = 1
	}
	return &CostModel{Profile: p, Alpha: alpha, Shape: shape}
}

// NewCostModelUnchecked builds a cost model without the α ≥ 1 floor. It is
// used to model users who *misestimate* their cost when bidding (the
// Fig. 13 error studies): an underestimated cost is exactly a model with a
// scaled-down α, which may fall below 1. Negative and NaN alphas are
// raised to 0.
func NewCostModelUnchecked(p *Profile, alpha float64, shape CostShape) *CostModel {
	if !(alpha >= 0) {
		alpha = 0
	}
	return &CostModel{Profile: p, Alpha: alpha, Shape: shape}
}

// Cost returns the user-perceived cost of a per-core reduction delta, in
// units of "fraction of a core-hour per core per hour of reduction". The
// total cost of reducing δ cores from a c-core job for h hours is
// c · Cost(δ/c) · h core-hours.
func (cm *CostModel) Cost(delta float64) float64 {
	if delta <= 0 {
		return 0
	}
	ee := cm.Profile.ExtraExecution(delta)
	switch cm.Shape {
	case CostQuadratic:
		return cm.Alpha * ee * ee
	default:
		return cm.Alpha * ee
	}
}

// Marginal returns dC/dδ at delta. The extra execution is convex in δ for
// every profiled application, so Marginal is non-decreasing — the property
// MPR-INT's convergence relies on.
func (cm *CostModel) Marginal(delta float64) float64 {
	if delta < 0 {
		delta = 0
	}
	d := cm.Profile.ExtraExecutionDeriv(delta)
	switch cm.Shape {
	case CostQuadratic:
		return cm.Alpha * 2 * cm.Profile.ExtraExecution(delta) * d
	default:
		return cm.Alpha * d
	}
}

// UnitCost returns C(δ)/δ — the cost per unit of resource reduction, the
// quantity the paper's bidding reference curves (Fig. 7(d)) are built
// from. For convex C with C(0)=0 it is non-decreasing in δ.
func (cm *CostModel) UnitCost(delta float64) float64 {
	if delta <= 0 {
		// Limit of C(δ)/δ as δ→0 is the marginal cost at zero.
		return cm.Marginal(1e-6)
	}
	return cm.Cost(delta) / delta
}

// ReferenceReduction returns the largest per-core reduction δ ≤ Δ whose
// unit cost does not exceed the price q — the bidding reference curve of
// Fig. 7(d) read as δ_ref(q). A user reducing up to δ_ref(q) at price q is
// never paid less than its cost. UnitCost is non-decreasing, so δ_ref is
// the bisection of [0, Δ] to a 1e-9 bracket: the result lies at most
// 1e-9 (plus UnitCost's rounding) below the exact root of UnitCost = q,
// which the cooperative bid's pruning (core.cooperativePerCore) relies on.
func (cm *CostModel) ReferenceReduction(q float64) float64 {
	if q <= 0 {
		return 0
	}
	max := cm.Profile.MaxReduction()
	if cm.UnitCost(max) <= q {
		return max
	}
	lo, hi := 0.0, max
	for hi-lo > 1e-9 {
		mid := 0.5 * (lo + hi)
		if cm.UnitCost(mid) <= q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// GainMaximizingReduction returns the per-core reduction δ* in [0, Δ] that
// maximizes the user's net gain q·δ − C(δ) at price q — the MPR-INT
// bidding rule (Section III-C). For convex C the gain is concave, so a
// golden-section search suffices.
func (cm *CostModel) GainMaximizingReduction(q float64) float64 {
	max := cm.Profile.MaxReduction()
	// Priced out: convex C with C(0) = 0 has C(d) ≥ C′(0)·d, so no reduction
	// gains and the search's closing test would return this 0 (margin ≫ its rounding).
	if q <= 0 || q*(1+1e-9) <= cm.Marginal(0) {
		return 0
	}
	gain := func(d float64) float64 { return q*d - cm.Cost(d) }
	d := solver.GoldenMax(gain, 0, max, 1e-9)
	if gain(d) <= 0 {
		return 0
	}
	return d
}

// LogFit is the paper's logarithmic cost-model fit (Section IV-B):
// cost(x) = A·log(B·x) − A, clamped at zero. The paper fits this form to
// the measured cost points to obtain the smooth curves of Fig. 7(c).
type LogFit struct {
	A float64
	B float64
}

// FitLog fits cost = A·log(B·x) − A to the points (xs, ys) by least
// squares. The form is linear in log x: cost = A·log x + (A·log B − A), so
// an ordinary linear regression on (log x, y) recovers A and B. Points
// with x <= 0 are skipped.
func FitLog(xs, ys []float64) LogFit {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, ys[i])
		}
	}
	a, c := solver.LinearFit(lx, ly)
	if a == 0 {
		return LogFit{A: 0, B: 1}
	}
	// c = A·log B − A → log B = c/A + 1.
	return LogFit{A: a, B: math.Exp(c/a + 1)}
}

// Eval evaluates the fitted cost at x, clamped to be non-negative.
func (f LogFit) Eval(x float64) float64 {
	if x <= 0 || f.A == 0 {
		return 0
	}
	v := f.A*math.Log(f.B*x) - f.A
	if v < 0 {
		return 0
	}
	return v
}

// FitLogCost samples a cost model at n evenly spaced reductions and fits
// the paper's logarithmic form, reproducing the Fig. 7(c) curves.
func FitLogCost(cm *CostModel, n int) LogFit {
	if n < 2 {
		n = 2
	}
	max := cm.Profile.MaxReduction()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := max * float64(i+1) / float64(n)
		xs[i] = x
		ys[i] = cm.Cost(x)
	}
	return FitLog(xs, ys)
}
