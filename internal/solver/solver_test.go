package solver

import (
	"math"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
)

// A threshold at either end of the interval is returned exactly.
func TestBisectEndpoints(t *testing.T) {
	g := func(x float64) float64 { return x }
	if x, ok := BisectMin(g, 0, 5, 1e-9); !ok || x != 0 {
		t.Errorf("threshold at lo endpoint: got %v, %v", x, ok)
	}
	if x, ok := BisectMin(g, -5, 0, 1e-9); !ok || x != 0 {
		t.Errorf("threshold at hi endpoint: got %v, %v", x, ok)
	}
}

func TestBisectNonSmooth(t *testing.T) {
	// Piecewise function with a kink and a flat stretch, like a clamped
	// supply curve minus its target.
	g := func(x float64) float64 {
		if x < 2 {
			return -1
		}
		return x - 2
	}
	x, ok := BisectMin(g, 0, 10, 1e-9)
	if !ok || !floats.AbsEqual(x, 2, 1e-6) {
		t.Errorf("BisectMin = %v, %v; want ~2, true", x, ok)
	}
}

func TestBisectMin(t *testing.T) {
	g := func(x float64) float64 { return x - 4 }
	x, ok := BisectMin(g, 0, 10, 1e-10)
	if !ok || !floats.AbsEqual(x, 4, 1e-6) {
		t.Errorf("BisectMin = %v, %v; want ~4, true", x, ok)
	}
}

func TestBisectMinInfeasible(t *testing.T) {
	g := func(x float64) float64 { return x - 100 }
	x, ok := BisectMin(g, 0, 10, 1e-10)
	if ok || x != 10 {
		t.Errorf("BisectMin infeasible = %v, %v; want 10, false", x, ok)
	}
}

func TestBisectMinAlreadyFeasible(t *testing.T) {
	g := func(x float64) float64 { return x + 1 }
	x, ok := BisectMin(g, 0.5, 10, 1e-10)
	if !ok || x != 0.5 {
		t.Errorf("BisectMin = %v, %v; want 0.5, true", x, ok)
	}
}

// Property: BisectMin returns the minimal feasible point of a monotone
// step threshold, to within tolerance.
func TestBisectMinMinimality(t *testing.T) {
	prop := func(rawThresh float64) bool {
		thresh := math.Mod(math.Abs(rawThresh), 9) + 0.5 // in (0.5, 9.5)
		g := func(x float64) float64 { return x - thresh }
		x, ok := BisectMin(g, 0, 10, 1e-9)
		if !ok {
			return false
		}
		return g(x) >= 0 && g(x-1e-6) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenMax(t *testing.T) {
	// f(x) = -(x-3)^2 has max at 3.
	x := GoldenMax(func(x float64) float64 { return -(x - 3) * (x - 3) }, 0, 10, 1e-9)
	if !floats.AbsEqual(x, 3, 1e-6) {
		t.Errorf("GoldenMax = %v, want 3", x)
	}
}

func TestGoldenMaxBoundary(t *testing.T) {
	// Monotone increasing: argmax at hi.
	x := GoldenMax(func(x float64) float64 { return x }, 0, 5, 1e-9)
	if !floats.AbsEqual(x, 5, 1e-5) {
		t.Errorf("GoldenMax monotone = %v, want 5", x)
	}
	// Monotone decreasing: argmax at lo.
	x = GoldenMax(func(x float64) float64 { return -x }, 0, 5, 1e-9)
	if !floats.AbsEqual(x, 0, 1e-5) {
		t.Errorf("GoldenMax decreasing = %v, want 0", x)
	}
}

func quadProblem(n int, target float64) ProjectedGradientProblem {
	coeff := make([]float64, n)
	upper := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		coeff[i] = 1
		upper[i] = 10
		w[i] = float64(i%5 + 1) // varying curvature weights
	}
	return ProjectedGradientProblem{
		N:      n,
		Cost:   func(m int, x float64) float64 { return w[m] * x * x },
		Grad:   func(m int, x float64) float64 { return 2 * w[m] * x },
		Coeff:  coeff,
		Upper:  upper,
		Target: target,
	}
}

func TestDualBisectionQuadratic(t *testing.T) {
	// minimize Σ w_m x² s.t. Σ x = T → x_m ∝ 1/w_m.
	p := quadProblem(5, 10)
	res := DualBisection(p, 1e-10)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	supply := 0.0
	for _, x := range res.X {
		supply += x
	}
	if !floats.AbsEqual(supply, 10, 1e-4) {
		t.Errorf("supply = %v, want 10", supply)
	}
	// KKT: 2 w_m x_m equal across interior coordinates.
	ref := 2 * 1.0 * res.X[0]
	for m, x := range res.X {
		w := float64(m%5 + 1)
		if x > 1e-9 && x < 10-1e-9 {
			if !floats.AbsEqual(2*w*x, ref, 1e-3) {
				t.Errorf("KKT violated at %d: %v vs %v", m, 2*w*x, ref)
			}
		}
	}
}

func TestProjectedGradientMatchesDual(t *testing.T) {
	p := quadProblem(8, 20)
	pg := SolveProjectedGradient(p, 20000, 1e-9)
	db := DualBisection(p, 1e-10)
	if !pg.Feasible || !db.Feasible {
		t.Fatalf("feasibility: pg=%v db=%v", pg.Feasible, db.Feasible)
	}
	if pg.Objective < db.Objective-1e-6 {
		t.Errorf("projected gradient beat the dual optimum: %v < %v", pg.Objective, db.Objective)
	}
	if (pg.Objective-db.Objective)/db.Objective > 0.02 {
		t.Errorf("projected gradient too far from optimum: %v vs %v", pg.Objective, db.Objective)
	}
}

func TestDualBisectionInfeasible(t *testing.T) {
	p := quadProblem(3, 1e6)
	res := DualBisection(p, 1e-9)
	if res.Feasible {
		t.Error("expected infeasible")
	}
	// Should saturate all variables.
	for m, x := range res.X {
		if !floats.AbsEqual(x, 10, 1e-6) {
			t.Errorf("x[%d] = %v, want saturated 10", m, x)
		}
	}
}

// Property: for random targets within reach, DualBisection meets the target
// and respects bounds.
func TestDualBisectionProperty(t *testing.T) {
	prop := func(seed uint8) bool {
		target := 1 + float64(seed%40) // max reachable = 50
		p := quadProblem(5, target)
		res := DualBisection(p, 1e-10)
		if !res.Feasible {
			return false
		}
		supply := 0.0
		for _, x := range res.X {
			if x < -1e-12 || x > 10+1e-9 {
				return false
			}
			supply += x
		}
		return supply >= target-1e-4
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3*x[i] + 7
	}
	slope, intercept := LinearFit(x, y)
	if !floats.AbsEqual(slope, 3, 1e-9) || !floats.AbsEqual(intercept, 7, 1e-9) {
		t.Errorf("fit = %v, %v; want 3, 7", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	slope, intercept := LinearFit(nil, nil)
	if slope != 0 || intercept != 0 {
		t.Errorf("empty fit = %v, %v", slope, intercept)
	}
	// All x equal: slope undefined, returns mean as intercept.
	slope, intercept = LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || !floats.AbsEqual(intercept, 2, 1e-9) {
		t.Errorf("degenerate fit = %v, %v; want 0, 2", slope, intercept)
	}
}
