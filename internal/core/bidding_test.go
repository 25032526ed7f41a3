package core

import (
	"math"
	"math/rand"
	"testing"

	"mpr/internal/perf"
)

// fullScanCooperative is the cooperative bid's reluctance as the plain
// scan computes it, one ReferenceReduction per sampled price: the
// reference cooperativePerCore's pruning must reproduce bit for bit.
func fullScanCooperative(model *perf.CostModel) float64 {
	maxPC := model.Profile.MaxReduction()
	if maxPC <= 0 {
		return 0
	}
	qSat := model.UnitCost(maxPC)
	b := 0.0
	for i := 1; i <= cooperativeSamples; i++ {
		q := qSat * float64(i) / cooperativeSamples
		ref := model.ReferenceReduction(q)
		if v := q * (maxPC - ref); v > b {
			b = v
		}
	}
	return b
}

// checkPrunedScan requires the pruned scan to return the full scan's b
// bit for bit, and returns how many samples it evaluated.
func checkPrunedScan(t *testing.T, model *perf.CostModel) int {
	t.Helper()
	got, evaluated := cooperativePerCore(model)
	if want := fullScanCooperative(model); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s α=%v %v: pruned b = %v, full scan %v", model.Profile.Name, model.Alpha, model.Shape, got, want)
	}
	return evaluated
}

// TestCooperativePruneMatchesFullScan pins the pruning's exactness over
// random models: every CPU and GPU profile, both cost shapes, and α from
// 0.3 to 3 — below the paper's α ≥ 1 floor too, as the cost-error
// studies build them.
func TestCooperativePruneMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	profiles := perf.AllProfiles()
	shapes := []perf.CostShape{perf.CostLinear, perf.CostQuadratic}
	const models = 3000
	evaluated := 0
	for i := 0; i < models; i++ {
		prof := profiles[rng.Intn(len(profiles))]
		alpha := 0.3 + 2.7*rng.Float64()
		evaluated += checkPrunedScan(t, perf.NewCostModelUnchecked(prof, alpha, shapes[rng.Intn(len(shapes))]))
	}
	t.Logf("%d models: %.1f of %d samples evaluated on average", models, float64(evaluated)/models, cooperativeSamples)
}

// TestCooperativePruneCount is the count gate on the pruning: how many
// of the 512 sampled prices still run a ReferenceReduction bisection at
// the paper's α = 1, for every profile, {linear, quadratic}. The count is
// exact, so a change that loosens the bound shows here even when the bid
// stays right: with the closed-form bound the sample of the largest
// bound is the only one bisected.
func TestCooperativePruneCount(t *testing.T) {
	for _, prof := range perf.AllProfiles() {
		for _, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
			if got := checkPrunedScan(t, perf.NewCostModel(prof, 1, shape)); got != 1 {
				t.Errorf("%s %v: %d of %d samples bisected, want 1", prof.Name, shape, got, cooperativeSamples)
			}
		}
	}
}

// TestNaNAlphaFloors is the NaN regression: both cost-model constructors
// floor a NaN α like any α below their floor, so the cooperative bid is
// the floored model's bit for bit instead of B = 0 (the whole Δ offered
// at any price), and a CooperativeBids fed NaN models solves once instead
// of growing by one entry a call. A finite α is left as it is.
func TestNaNAlphaFloors(t *testing.T) {
	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, c := range []struct {
		name       string
		build      func(float64) *perf.CostModel
		floor, fin float64
	}{
		{"NewCostModel", func(a float64) *perf.CostModel { return perf.NewCostModel(prof, a, perf.CostLinear) }, 1, 1.7},
		{"NewCostModelUnchecked", func(a float64) *perf.CostModel { return perf.NewCostModelUnchecked(prof, a, perf.CostLinear) }, 0, 0.4},
	} {
		if got := c.build(nan).Alpha; got != c.floor {
			t.Errorf("%s(NaN).Alpha = %v, want %v", c.name, got, c.floor)
		}
		if got := c.build(c.fin).Alpha; got != c.fin {
			t.Errorf("%s(%v).Alpha = %v, want it unchanged", c.name, c.fin, got)
		}
		if got, want := CooperativeBid(16, c.build(nan)), CooperativeBid(16, c.build(c.floor)); got != want {
			t.Errorf("%s: NaN α bids %+v, the floored model %+v", c.name, got, want)
		}
		var bids CooperativeBids
		for i := 0; i < 10; i++ {
			bids.Bid(16, c.build(nan))
		}
		if n := bids.Solves(); n != 1 {
			t.Errorf("%s: 10 NaN-α bids took %d solves, want 1", c.name, n)
		}
	}
	if b := CooperativeBid(16, perf.NewCostModel(prof, nan, perf.CostLinear)); !(b.B > 0) {
		t.Errorf("NaN α through NewCostModel bids B = %v, want > 0", b.B)
	}
}

// TestCooperativePruneExtremes holds the pruning to the full scan on
// 2,160 models at the edges of float64: α from the smallest subnormal to
// 1e300, sensitivities from 1e-300 to 1e300 and MinAlloc from 1e-12 to
// 1 − 1e-12, both shapes. Most of them fall outside the bound's guard
// and run the full scan; those inside it check that the guard keeps
// UnitCost and the root clear of overflow and underflow.
func TestCooperativePruneExtremes(t *testing.T) {
	alphas := []float64{5e-324, 2.3e-308, 1e-300, 1e-200, 1e-150, 1e-100, 1e-10, 1, 1e10, 1e100, 1e200, 1e300}
	senses := []float64{1e-300, 1e-200, 1e-150, 1e-100, 1e-10, 1, 1e30, 1e100, 1e200, 1e300}
	minAllocs := []float64{1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12}
	models, pruned := 0, 0
	for _, alpha := range alphas {
		for _, sens := range senses {
			for _, minAlloc := range minAllocs {
				prof := &perf.Profile{Name: "extreme", Sens: sens, MinAlloc: minAlloc}
				for _, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
					if checkPrunedScan(t, perf.NewCostModelUnchecked(prof, alpha, shape)) < cooperativeSamples {
						pruned++
					}
					models++
				}
			}
		}
	}
	t.Logf("%d models, %d of them pruned", models, pruned)
}

// TestReferenceWithinBoundMargin is the pruning bound's premise, checked
// directly: ReferenceReduction(q) lies in [δ°(q) − 2e-9, δ°(q) + 1e-9]
// for every profile, both shapes, α ∈ {0.3, 1, 3} and dense prices in
// (0, q_sat]. A change to the bisection's tolerance fails here by name.
func TestReferenceWithinBoundMargin(t *testing.T) {
	const prices = 4096
	for _, prof := range perf.AllProfiles() {
		for _, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
			for _, alpha := range []float64{0.3, 1, 3} {
				model := perf.NewCostModelUnchecked(prof, alpha, shape)
				c := rootScale(model)
				qSat := model.UnitCost(prof.MaxReduction())
				for i := 1; i <= prices; i++ {
					q := qSat * float64(i) / prices
					root := max(referenceRoot(shape, c, q), 0)
					if ref := model.ReferenceReduction(q); !(ref >= root-2e-9 && ref <= root+1e-9) {
						t.Fatalf("%s %v α=%v q=%v: δ_ref = %v, outside [%v, %v] around the root %v",
							prof.Name, shape, alpha, q, ref, root-2e-9, root+1e-9, root)
					}
				}
			}
		}
	}
}

// FuzzCooperativePrune checks the pruned scan against the full one on
// arbitrary valid profiles and cost models with any finite α ≥ 0. The
// seeds are the two P40 applications, an RTX 2080 and a CPU profile, in
// both shapes.
func FuzzCooperativePrune(f *testing.F) {
	for _, name := range []string{"Jacobi", "TeaLeaf", "GEMM-2080", "XSBench"} {
		prof, err := perf.ProfileByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prof.Sens, prof.MinAlloc, 1.0, false)
		f.Add(prof.Sens, prof.MinAlloc, 0.5, true)
	}
	f.Fuzz(func(t *testing.T, sens, minAlloc, alpha float64, quadratic bool) {
		prof := &perf.Profile{Name: "fuzz", Sens: sens, MinAlloc: minAlloc}
		if prof.Validate() != nil || !(alpha >= 0 && alpha <= math.MaxFloat64) {
			t.Skip()
		}
		shape := perf.CostLinear
		if quadratic {
			shape = perf.CostQuadratic
		}
		checkPrunedScan(t, perf.NewCostModelUnchecked(prof, alpha, shape))
	})
}
