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
// never paid less than its cost. It is one ReferenceWalker call; a caller
// reading the curve at many prices keeps a walker instead.
func (cm *CostModel) ReferenceReduction(q float64) float64 {
	var w ReferenceWalker
	w.Reset(cm)
	return w.Reduction(q)
}

// refDepth is how many bisection steps a ReferenceWalker caches. A valid
// profile's Δ is below 1, so the 1e-9 bracket is reached in 30 halvings;
// a deeper walk (Δ beyond 2^64·1e-9) evaluates its extra steps afresh.
const refDepth = 64

// ReferenceWalker evaluates δ_ref(q) (ReferenceReduction) for one cost
// model at many prices. UnitCost is monotone, so δ_ref is the bisection
// of [0, Δ] that steps up at a mid whose UnitCost(mid) ≤ q and down
// otherwise, to a 1e-9 bracket. The walker remembers its last path: each
// depth's UnitCost(mid) and decision. A mid reached by the same decisions
// is the same float, so its cached UnitCost is exactly what a fresh
// bisection computes: a new price replays the cached decisions up to the
// first one that changes and evaluates UnitCost only below it, and a price
// that changes none — at least every cached up-UnitCost and below every
// cached down-UnitCost — returns the last result with no walk. Any
// sequence of prices gets the one-shot bisection's results bit for bit; an
// ascending scan changes few decisions a price and evaluates few UnitCosts.
//
// Reset binds the walker to a model, which must not change until the next
// Reset. A walker is not safe for concurrent use.
type ReferenceWalker struct {
	model         *CostModel
	max, satPrice float64
	units         [refDepth]float64 // UnitCost(mid) at each cached depth
	ups           uint64            // bit k: the path steps up at depth k
	cached        int               // depths of the last path held in units and ups
	// last is the last path's result; a price in [upMax, downMin) repeats
	// the path. Before the first walk the range is empty.
	last, upMax, downMin float64
	evals                int
}

// Reset binds the walker to cm and forgets any path, evaluating the
// saturation price UnitCost(Δ).
func (w *ReferenceWalker) Reset(cm *CostModel) {
	max := cm.Profile.MaxReduction()
	*w = ReferenceWalker{
		model: cm, max: max, satPrice: cm.UnitCost(max),
		upMax: math.Inf(1), downMin: math.Inf(-1), evals: 1,
	}
}

// SaturationPrice is UnitCost(Δ): at and above it δ_ref is the full Δ.
func (w *ReferenceWalker) SaturationPrice() float64 { return w.satPrice }

// Evaluations reports how many times the walker evaluated UnitCost since
// its Reset, the saturation price included.
func (w *ReferenceWalker) Evaluations() int { return w.evals }

// Reduction returns δ_ref(q): the bisection from the root, bit for bit,
// whatever prices the walker saw before.
func (w *ReferenceWalker) Reduction(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if w.satPrice <= q {
		return w.max
	}
	if q >= w.upMax && q < w.downMin {
		return w.last
	}
	lo, hi := 0.0, w.max
	upMax, downMin := math.Inf(-1), math.Inf(1)
	k := 0
	for ; hi-lo > 1e-9; k++ {
		mid := 0.5 * (lo + hi)
		var u float64
		if k < w.cached {
			u = w.units[k]
			if (u <= q) != (w.ups>>k&1 == 1) {
				// The decision flips: the mids below this depth are new.
				w.cached = k + 1
				w.ups ^= 1 << k
			}
		} else {
			u = w.model.UnitCost(mid)
			w.evals++
			if k < refDepth {
				w.units[k] = u
				if u <= q {
					w.ups |= 1 << k
				} else {
					w.ups &^= 1 << k
				}
			}
		}
		// A NaN u steps down at every price, so the bounds leave it out;
		// a NaN price fails them and walks.
		if u <= q {
			lo = mid
			if u > upMax {
				upMax = u
			}
		} else {
			hi = mid
			if u < downMin {
				downMin = u
			}
		}
	}
	w.cached = min(k, refDepth)
	w.last, w.upMax, w.downMin = lo, upMax, downMin
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
