package perf

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpr/internal/solver"
)

func TestCatalogValid(t *testing.T) {
	all := AllProfiles()
	if len(all) != 14 {
		t.Fatalf("profile count = %d, want 14", len(all))
	}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestCatalogSplit(t *testing.T) {
	if n := len(CPUProfiles()); n != 8 {
		t.Errorf("CPU profiles = %d, want 8", n)
	}
	if n := len(GPUProfiles()); n != 6 {
		t.Errorf("GPU profiles = %d, want 6", n)
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "XSBench" || p.Device != DeviceCPU {
		t.Errorf("got %+v", p)
	}
	if _, err := ProfileByName("NoSuchApp"); err == nil {
		t.Error("expected error for unknown app")
	}
}

func TestXSBenchMaxReduction(t *testing.T) {
	// The paper states Δ = 0.7 for XSBench.
	p, _ := ProfileByName("XSBench")
	if d := p.MaxReduction(); math.Abs(d-0.7) > 1e-12 {
		t.Errorf("XSBench Δ = %v, want 0.7", d)
	}
}

func TestPerformanceCalibration(t *testing.T) {
	// Each curve must pass through the endpoint digitized from the
	// paper's figures: perf(MinAlloc) for XSBench is 40% at 0.3.
	p, _ := ProfileByName("XSBench")
	if v := p.Performance(1.0); v != 100 {
		t.Errorf("perf(1.0) = %v", v)
	}
	if v := p.Performance(0.3); math.Abs(v-40) > 0.5 {
		t.Errorf("perf(0.3) = %v, want ~40", v)
	}
	// Clamping outside the profiled range.
	if v := p.Performance(0.1); math.Abs(v-p.Performance(0.3)) > 1e-12 {
		t.Errorf("perf(0.1) = %v, want clamp to perf(0.3)", v)
	}
	if v := p.Performance(1.5); v != 100 {
		t.Errorf("perf(1.5) = %v, want clamp to 100", v)
	}
	// Calibration points for the extremes of each device class.
	moc, _ := ProfileByName("SimpleMOC")
	if v := moc.Performance(0.3); math.Abs(v-30) > 0.5 {
		t.Errorf("SimpleMOC perf(0.3) = %v, want ~30", v)
	}
	// Jacobi keeps Fig. 15(a)'s steep sensitivity (s = 2.667) but on the
	// P40's narrow capping range: at its floor allocation of 0.8 it has
	// already lost 40% of its throughput.
	jac, _ := ProfileByName("Jacobi")
	if v := jac.Performance(0.8); math.Abs(v-60) > 0.5 {
		t.Errorf("Jacobi perf(0.8) = %v, want ~60", v)
	}
}

// Property: performance is monotone non-decreasing in allocation for all
// profiles, and speed is performance/100.
func TestPerformanceMonotone(t *testing.T) {
	for _, p := range AllProfiles() {
		prev := -1.0
		for a := 0.0; a <= 1.01; a += 0.01 {
			v := p.Performance(a)
			if v < prev-1e-9 {
				t.Fatalf("%s: performance decreased at a=%v", p.Name, a)
			}
			if math.Abs(p.Speed(a)-v/100) > 1e-12 {
				t.Fatalf("%s: speed mismatch", p.Name)
			}
			prev = v
		}
	}
}

// Property: extra execution is zero at zero reduction, positive and
// increasing for positive reduction, and convex on the profiled range —
// the diminishing-return behaviour the paper's supply function captures.
func TestExtraExecutionConvex(t *testing.T) {
	for _, p := range AllProfiles() {
		if ee := p.ExtraExecution(0); math.Abs(ee) > 1e-12 {
			t.Errorf("%s: EE(0) = %v", p.Name, ee)
		}
		max := p.MaxReduction()
		const n = 50
		var prevVal, prevSlope float64
		for i := 1; i <= n; i++ {
			d := max * float64(i) / n
			v := p.ExtraExecution(d)
			if v <= prevVal {
				t.Fatalf("%s: EE not increasing at δ=%v", p.Name, d)
			}
			slope := (v - prevVal) / (max / n)
			if i > 1 && slope < prevSlope-1e-6 {
				t.Fatalf("%s: EE not convex at δ=%v (slope %v < %v)", p.Name, d, slope, prevSlope)
			}
			prevVal, prevSlope = v, slope
		}
	}
}

func TestSensitivityOrdering(t *testing.T) {
	// Sensitivity is the extra execution at the maximum reduction.
	sens := func(name string) float64 {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p.ExtraExecution(p.MaxReduction())
	}
	// SimpleMOC must be more sensitive than RSBench (Fig. 9(c) discussion).
	if moc, rs := sens("SimpleMOC"), sens("RSBench"); moc <= rs {
		t.Errorf("SimpleMOC sensitivity %v should exceed RSBench %v", moc, rs)
	}
	// Jacobi is the most sensitive GPU app.
	if sens("Jacobi") <= sens("GEMM-2080") {
		t.Errorf("Jacobi should be more sensitive than GEMM-2080")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "zero-sens", Sens: 0, MinAlloc: 0.3},
		{Name: "neg-sens", Sens: -1, MinAlloc: 0.3},
		{Name: "zero-minalloc", Sens: 1, MinAlloc: 0},
		{Name: "minalloc-one", Sens: 1, MinAlloc: 1},
		{Name: "minalloc-above", Sens: 1, MinAlloc: 1.2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %s should be invalid", p.Name)
		}
	}
}

func TestCostLinearAndQuadratic(t *testing.T) {
	p, _ := ProfileByName("XSBench")
	lin := NewCostModel(p, 1, CostLinear)
	quad := NewCostModel(p, 1, CostQuadratic)
	d := 0.5
	ee := p.ExtraExecution(d)
	if got := lin.Cost(d); math.Abs(got-ee) > 1e-12 {
		t.Errorf("linear cost = %v, want %v", got, ee)
	}
	if got := quad.Cost(d); math.Abs(got-ee*ee) > 1e-12 {
		t.Errorf("quadratic cost = %v, want %v", got, ee*ee)
	}
	if lin.Cost(0) != 0 || lin.Cost(-1) != 0 {
		t.Error("cost at δ<=0 should be 0")
	}
}

func TestCostAlphaFloor(t *testing.T) {
	p, _ := ProfileByName("CoMD")
	cm := NewCostModel(p, 0.2, CostLinear)
	if cm.Alpha != 1 {
		t.Errorf("alpha = %v, want floored to 1", cm.Alpha)
	}
	cm3 := NewCostModel(p, 3, CostLinear)
	if r := cm3.Cost(0.4) / NewCostModel(p, 1, CostLinear).Cost(0.4); math.Abs(r-3) > 1e-9 {
		t.Errorf("alpha scaling = %v, want 3", r)
	}
}

func TestMarginalNonDecreasing(t *testing.T) {
	for _, p := range AllProfiles() {
		cm := NewCostModel(p, 1, CostLinear)
		max := p.MaxReduction()
		prev := 0.0
		for i := 1; i < 40; i++ {
			d := max * float64(i) / 40
			m := cm.Marginal(d)
			if m < prev-1e-4 {
				t.Fatalf("%s: marginal decreased at δ=%v: %v < %v", p.Name, d, m, prev)
			}
			prev = m
		}
	}
}

func TestUnitCostMonotone(t *testing.T) {
	for _, p := range AllProfiles() {
		cm := NewCostModel(p, 1, CostLinear)
		max := p.MaxReduction()
		prev := -1.0
		for i := 1; i <= 40; i++ {
			d := max * float64(i) / 40
			u := cm.UnitCost(d)
			if u < prev-1e-9 {
				t.Fatalf("%s: unit cost decreased at δ=%v", p.Name, d)
			}
			prev = u
		}
	}
}

// Property: the reference reduction never loses money — unit cost at the
// reference is at most the price.
func TestReferenceReductionNoLoss(t *testing.T) {
	p, _ := ProfileByName("XSBench")
	cm := NewCostModel(p, 1, CostLinear)
	prop := func(rawQ float64) bool {
		q := math.Mod(math.Abs(rawQ), 3) // price in [0,3)
		d := cm.ReferenceReduction(q)
		if d < 0 || d > p.MaxReduction()+1e-9 {
			return false
		}
		if d > 1e-6 && cm.UnitCost(d) > q+1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReferenceReductionSaturates(t *testing.T) {
	p, _ := ProfileByName("RSBench")
	cm := NewCostModel(p, 1, CostLinear)
	// At a huge price every application offers its full Δ.
	if d := cm.ReferenceReduction(1e6); math.Abs(d-p.MaxReduction()) > 1e-9 {
		t.Errorf("reference at huge price = %v, want Δ=%v", d, p.MaxReduction())
	}
	if d := cm.ReferenceReduction(0); d != 0 {
		t.Errorf("reference at zero price = %v, want 0", d)
	}
}

// bisectReference is δ_ref(q) as the plain bisection from the root, the
// oracle ReferenceWalker and ReferenceReduction must equal bit for bit.
// It passes each UnitCost it evaluates to visit, if set.
func bisectReference(cm *CostModel, q float64, visit func(float64)) float64 {
	max := cm.Profile.MaxReduction()
	if q <= 0 {
		return 0
	}
	if cm.UnitCost(max) <= q {
		return max
	}
	lo, hi := 0.0, max
	for hi-lo > 1e-9 {
		mid := 0.5 * (lo + hi)
		u := cm.UnitCost(mid)
		if visit != nil {
			visit(u)
		}
		if u <= q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestReferenceWalkerMatchesBisection holds one walker per model to the
// plain bisection over ascending, descending and shuffled price sequences,
// so its cached path is right in any call order, not only the cooperative
// scan's. The models are every profile × both shapes × α ∈ {0} ∪
// [0.3, 3]; the prices are the scan's 512 samples of (0, q_sat] with 0, a
// negative, prices past saturation, off-grid prices, and ties: prices
// equal to a UnitCost some bisection path evaluates, where the decision
// at that depth flips.
func TestReferenceWalkerMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	alphas := []float64{0, 0.3, 1, 3}
	for i := 0; i < 3; i++ {
		alphas = append(alphas, 0.3+2.7*rng.Float64())
	}
	for _, p := range AllProfiles() {
		for _, shape := range []CostShape{CostLinear, CostQuadratic} {
			for _, alpha := range alphas {
				cm := NewCostModelUnchecked(p, alpha, shape)
				qSat := cm.UnitCost(p.MaxReduction())
				prices := []float64{0, -1, qSat, 2 * qSat}
				tie := func(u float64) { prices = append(prices, u) }
				for i := 1; i <= 512; i++ {
					q := qSat * float64(i) / 512
					if i%32 == 0 {
						bisectReference(cm, q, tie)
					}
					prices = append(prices, q, qSat*rng.Float64())
				}
				slices.Sort(prices)
				prices = slices.Compact(prices)
				want := make(map[float64]float64, len(prices))
				for _, q := range prices {
					want[q] = bisectReference(cm, q, nil)
				}
				descending := slices.Clone(prices)
				slices.Reverse(descending)
				shuffled := slices.Clone(prices)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for _, order := range []struct {
					name   string
					prices []float64
				}{{"ascending", prices}, {"descending", descending}, {"shuffled", shuffled}} {
					var w ReferenceWalker
					w.Reset(cm)
					for _, q := range order.prices {
						got, one := w.Reduction(q), cm.ReferenceReduction(q)
						if math.Float64bits(got) != math.Float64bits(want[q]) || math.Float64bits(one) != math.Float64bits(want[q]) {
							t.Fatalf("%s %v α=%v %s, q=%v: walker %v, one-shot %v, bisection %v",
								p.Name, shape, alpha, order.name, q, got, one, want[q])
						}
					}
				}
			}
		}
	}
}

// Property: the gain-maximizing reduction yields non-negative gain and
// (approximately) dominates nearby reductions.
func TestGainMaximizingReduction(t *testing.T) {
	for _, name := range []string{"XSBench", "RSBench", "Jacobi"} {
		p, _ := ProfileByName(name)
		cm := NewCostModel(p, 1, CostLinear)
		for _, q := range []float64{0.1, 0.5, 1.0, 2.0, 5.0} {
			d := cm.GainMaximizingReduction(q)
			gain := q*d - cm.Cost(d)
			if gain < -1e-9 {
				t.Errorf("%s q=%v: negative gain %v", name, q, gain)
			}
			for _, alt := range []float64{d * 0.9, d * 1.1, 0.01, p.MaxReduction()} {
				if alt < 0 || alt > p.MaxReduction() {
					continue
				}
				if q*alt-cm.Cost(alt) > gain+1e-4 {
					t.Errorf("%s q=%v: δ*=%v (gain %v) beaten by δ=%v (gain %v)",
						name, q, d, gain, alt, q*alt-cm.Cost(alt))
				}
			}
		}
	}
}

func TestGainMaximizingAtZeroPrice(t *testing.T) {
	p, _ := ProfileByName("XSBench")
	cm := NewCostModel(p, 1, CostLinear)
	if d := cm.GainMaximizingReduction(0); d != 0 {
		t.Errorf("δ*(0) = %v, want 0", d)
	}
}

// Property: higher prices never decrease the gain-maximizing supply —
// monotone supply is what makes MClr solvable by bisection.
func TestGainMaximizingMonotoneInPrice(t *testing.T) {
	p, _ := ProfileByName("SimpleMOC")
	cm := NewCostModel(p, 1, CostLinear)
	prev := 0.0
	for q := 0.05; q < 10; q *= 1.5 {
		d := cm.GainMaximizingReduction(q)
		if d < prev-1e-6 {
			t.Fatalf("supply decreased: δ*(%v)=%v < %v", q, d, prev)
		}
		prev = d
	}
}

// plainGainMax is GainMaximizingReduction as it was before priced-out
// bidders skipped the search: the golden-section search at every positive
// price, then its closing test.
func plainGainMax(cm *CostModel, q float64) float64 {
	if q <= 0 {
		return 0
	}
	gain := func(d float64) float64 { return q*d - cm.Cost(d) }
	d := solver.GoldenMax(gain, 0, cm.Profile.MaxReduction(), 1e-9)
	if gain(d) <= 0 {
		return 0
	}
	return d
}

// TestGainMaximizingMatchesPlainSearch: the early return for a price at or
// below the marginal cost at zero gives, bit for bit, what the search gave
// — over every profile, α ∈ [0, 3) (0, the Fig. 13 underestimates below 1
// and the floor 1 among them), both shapes, and prices drawn across the
// range and within ±1e-6, ±1e-8 and ±1 ulp of the marginal cost and of the
// early return's own threshold just beneath it.
func TestGainMaximizingMatchesPlainSearch(t *testing.T) {
	cases := 400_000
	if testing.Short() {
		cases = 40_000
	}
	rng := rand.New(rand.NewSource(21))
	profiles := AllProfiles()
	early := 0
	for c := 0; c < cases; c++ {
		cm := &CostModel{Profile: profiles[rng.Intn(len(profiles))], Alpha: 3 * rng.Float64(), Shape: CostShape(rng.Intn(2))}
		switch rng.Intn(8) {
		case 0:
			cm.Alpha = 0
		case 1:
			cm.Alpha = 1
		}
		m := cm.Alpha * cm.Profile.Sens // the linear shape's marginal cost at zero
		q := 2.5 * m * rng.Float64()
		if near := rng.Intn(16); near < 12 {
			if q = m; near&1 == 1 {
				q = m / (1 + 1e-9)
			}
			switch near / 2 {
			case 0:
				q *= 1 + 1e-6*(2*rng.Float64()-1)
			case 1:
				q *= 1 + 1e-8*(2*rng.Float64()-1)
			case 2:
				q = math.Nextafter(q, 0)
			case 3:
				q = math.Nextafter(q, math.Inf(1))
			case 4:
				q *= 1 + 4e-9*(2*rng.Float64()-1)
			}
		} else if near == 12 {
			q = 0.05 + rng.Float64() // the prices markets open and settle at
		}
		if q > 0 && q*(1+1e-9) <= cm.Marginal(0) {
			early++
		}
		got, want := cm.GainMaximizingReduction(q), plainGainMax(cm, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: %s α=%v %v q=%v (C′(0)=%v): δ* = %v, plain search %v",
				c, cm.Profile.Name, cm.Alpha, cm.Shape, q, cm.Marginal(0), got, want)
		}
	}
	if early < cases/10 {
		t.Errorf("only %d of %d cases took the early return", early, cases)
	}
	t.Logf("%d of %d cases took the early return", early, cases)
}

func TestFitLogRecoversExact(t *testing.T) {
	// Generate points from a known log model and recover its parameters.
	truth := LogFit{A: 2.5, B: 4.0}
	var xs, ys []float64
	for x := 0.3; x <= 1.0; x += 0.05 {
		xs = append(xs, x)
		ys = append(ys, truth.A*math.Log(truth.B*x)-truth.A)
	}
	got := FitLog(xs, ys)
	if math.Abs(got.A-truth.A) > 1e-6 || math.Abs(got.B-truth.B) > 1e-6 {
		t.Errorf("fit = %+v, want %+v", got, truth)
	}
}

func TestFitLogDegenerate(t *testing.T) {
	f := FitLog(nil, nil)
	if f.Eval(0.5) != 0 {
		t.Error("degenerate fit should evaluate to 0")
	}
	if f.Eval(-1) != 0 || f.Eval(0) != 0 {
		t.Error("Eval must clamp non-positive x to 0")
	}
}

func TestFitLogCostApproximates(t *testing.T) {
	// The log fit should track the true cost within a loose relative error
	// over the upper half of the reduction range (as in Fig. 7(c)).
	for _, p := range CPUProfiles() {
		cm := NewCostModel(p, 1, CostLinear)
		fit := FitLogCost(cm, 20)
		max := p.MaxReduction()
		for _, frac := range []float64{0.75, 1.0} {
			d := max * frac
			truth := cm.Cost(d)
			got := fit.Eval(d)
			if truth <= 0 {
				continue
			}
			relErr := math.Abs(got-truth) / truth
			if relErr > 0.6 {
				t.Errorf("%s: log fit rel err %.2f at δ=%v (got %v, want %v)", p.Name, relErr, d, got, truth)
			}
		}
	}
}

func TestCostShapeString(t *testing.T) {
	if CostLinear.String() != "linear" || CostQuadratic.String() != "quadratic" {
		t.Error("CostShape strings")
	}
	if CostShape(99).String() != "unknown" {
		t.Error("unknown CostShape string")
	}
}
