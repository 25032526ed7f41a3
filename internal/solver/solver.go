// Package solver provides the small numerical toolbox used across the MPR
// reproduction: scalar root finding and minimization, projected gradient
// descent for the OPT baseline, and linear least squares for the logarithmic
// cost-model fit.
//
// Everything here is deterministic and allocation-light; these routines sit
// on the hot path of market clearing and of the OPT baseline, so they are
// written to be called millions of times inside the simulator.
package solver

import "math"

// BisectMin finds the smallest x in [lo, hi] with g(x) >= 0, assuming g is
// non-decreasing. If g(hi) < 0 it returns hi and false. This is the form of
// the market-clearing search: g is (power supplied at price x) − target,
// and we want the minimal feasible price.
func BisectMin(g func(float64) float64, lo, hi, tol float64) (float64, bool) {
	if g(hi) < 0 {
		return hi, false
	}
	if g(lo) >= 0 {
		return lo, true
	}
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		if g(mid) >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// GoldenMax maximizes a unimodal function f on [lo, hi] using golden-section
// search and returns the argmax. Used by bidding agents to maximize their
// net gain G(δ) = q·δ − C(δ), which is concave in δ for convex costs.
func GoldenMax(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (√5 − 1) / 2
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			a = x1
			x1, f1 = x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b = x2
			x2, f2 = x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
	}
	return 0.5 * (a + b)
}

// ProjectedGradientProblem describes the separable constrained minimization
// solved by the OPT baseline:
//
//	minimize   Σ_m cost_m(x_m)
//	subject to Σ_m k_m·x_m ≥ target,  0 ≤ x_m ≤ up_m.
//
// Cost and Grad evaluate the m-th objective term and its derivative.
type ProjectedGradientProblem struct {
	N      int
	Cost   func(m int, x float64) float64
	Grad   func(m int, x float64) float64
	Coeff  []float64 // k_m: power reduction per unit of x_m
	Upper  []float64 // up_m: per-variable upper bound
	Target float64   // required Σ k_m x_m
}

// ProjectedGradientResult carries the solution and solver diagnostics.
type ProjectedGradientResult struct {
	X          []float64
	Objective  float64
	Iterations int
	Feasible   bool
}

// SolveProjectedGradient runs projected gradient descent with a penalty on
// constraint violation. It is intentionally a *generic* NLP method — the
// paper's OPT baseline is solved by a general solver whose run time grows
// quickly with the number of jobs, and this reproduces that behaviour. The
// fast KKT path (DualBisection) exists for verification.
func SolveProjectedGradient(p ProjectedGradientProblem, maxIter int, tol float64) ProjectedGradientResult {
	x := make([]float64, p.N)
	grad := make([]float64, p.N)
	// Start at the upper bounds scaled to just satisfy the constraint, if
	// possible; otherwise start at the bounds.
	total := 0.0
	for m := 0; m < p.N; m++ {
		total += p.Coeff[m] * p.Upper[m]
	}
	scale := 1.0
	if total > 0 && p.Target < total {
		scale = p.Target / total
	}
	for m := 0; m < p.N; m++ {
		x[m] = scale * p.Upper[m]
	}

	// Dual ascent on the inequality multiplier λ with projected primal
	// steps. For convex separable costs this converges to the KKT point.
	// The constraint is normalized by the mean coefficient so the dual
	// step size is insensitive to the physical units of Coeff (cores vs
	// watts).
	kbar := 0.0
	for m := 0; m < p.N; m++ {
		kbar += p.Coeff[m]
	}
	kbar /= float64(p.N)
	if kbar <= 0 {
		kbar = 1
	}
	lambda := 0.0 // multiplier for the normalized constraint
	step := 0.02
	dualStep := 0.5 / float64(p.N)
	var it int
	for it = 0; it < maxIter; it++ {
		supply := 0.0
		for m := 0; m < p.N; m++ {
			supply += p.Coeff[m] * x[m]
		}
		short := (p.Target - supply) / kbar
		moved := 0.0
		for m := 0; m < p.N; m++ {
			grad[m] = p.Grad(m, x[m]) - lambda*p.Coeff[m]/kbar
		}
		for m := 0; m < p.N; m++ {
			nx := x[m] - step*grad[m]
			if nx < 0 {
				nx = 0
			}
			if nx > p.Upper[m] {
				nx = p.Upper[m]
			}
			moved += math.Abs(nx - x[m])
			x[m] = nx
		}
		lambda += dualStep * short
		if lambda < 0 {
			lambda = 0
		}
		if moved < tol && math.Abs(short) <= 1e-6 {
			break
		}
	}

	// Feasibility restoration: dual ascent hovers around the constraint;
	// if it stopped on the infeasible side, scale the solution up
	// (respecting the box) until the target is met or the box saturates.
	for pass := 0; pass < 50; pass++ {
		supply := 0.0
		headroomSupply := 0.0
		for m := 0; m < p.N; m++ {
			supply += p.Coeff[m] * x[m]
			headroomSupply += p.Coeff[m] * (p.Upper[m] - x[m])
		}
		short := p.Target - supply
		if short <= 0 || headroomSupply <= 1e-12 {
			break
		}
		frac := short / headroomSupply
		if frac > 1 {
			frac = 1
		}
		for m := 0; m < p.N; m++ {
			x[m] += frac * (p.Upper[m] - x[m])
		}
	}

	obj := 0.0
	supply := 0.0
	for m := 0; m < p.N; m++ {
		obj += p.Cost(m, x[m])
		supply += p.Coeff[m] * x[m]
	}
	return ProjectedGradientResult{
		X:          x,
		Objective:  obj,
		Iterations: it,
		Feasible:   supply >= p.Target-1e-6,
	}
}

// DualBisection solves the same separable problem via its KKT conditions:
// at the optimum, grad_m(x_m) = λ·k_m (clamped to the box), and λ is found
// by bisection on the aggregate constraint. Requires each cost term to be
// convex with a non-decreasing derivative. This is the fast verification
// path for OPT.
func DualBisection(p ProjectedGradientProblem, tol float64) ProjectedGradientResult {
	// x_m(λ): smallest x in [0, up] with grad(x) >= λ·k  → grad is
	// non-decreasing, so bisect per coordinate.
	xOf := func(m int, lam float64) float64 {
		target := lam * p.Coeff[m]
		lo, hi := 0.0, p.Upper[m]
		if p.Grad(m, hi) <= target {
			return hi
		}
		if p.Grad(m, lo) >= target {
			return lo
		}
		for hi-lo > tol {
			mid := 0.5 * (lo + hi)
			if p.Grad(m, mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return 0.5 * (lo + hi)
	}
	supplyAt := func(lam float64) float64 {
		s := 0.0
		for m := 0; m < p.N; m++ {
			s += p.Coeff[m] * xOf(m, lam)
		}
		return s
	}
	// Find λ bracket: supply is non-decreasing in λ.
	lo, hi := 0.0, 1.0
	for supplyAt(hi) < p.Target && hi < 1e12 {
		hi *= 2
	}
	feasible := supplyAt(hi) >= p.Target-1e-9
	lam := hi
	if feasible {
		for hi-lo > tol {
			mid := 0.5 * (lo + hi)
			if supplyAt(mid) >= p.Target {
				hi = mid
			} else {
				lo = mid
			}
		}
		lam = hi
	}
	x := make([]float64, p.N)
	obj, supply := 0.0, 0.0
	for m := 0; m < p.N; m++ {
		x[m] = xOf(m, lam)
		obj += p.Cost(m, x[m])
		supply += p.Coeff[m] * x[m]
	}
	return ProjectedGradientResult{X: x, Objective: obj, Iterations: 0, Feasible: supply >= p.Target-1e-6}
}

// LinearFit performs ordinary least squares of y on x, returning slope and
// intercept. Used by the logarithmic cost-model fit, which is linear in
// (log x).
func LinearFit(x, y []float64) (slope, intercept float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}
