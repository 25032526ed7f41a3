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
// the paper's α = 1, for every profile, {linear, quadratic}. The count
// depends on the profile's Δ alone (its sensitivity scales every price
// alike), so it is one pair per device. The counts are exact, so a change
// that loosens the bound shows here even when the bid stays right.
func TestCooperativePruneCount(t *testing.T) {
	want := map[perf.Device][2]int{
		perf.DeviceCPU:     {166, 201},
		perf.DeviceGPUP40:  {413, 260},
		perf.DeviceGPU1070: {214, 213},
		perf.DeviceGPU2080: {214, 213},
	}
	for _, prof := range perf.AllProfiles() {
		for s, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
			got := checkPrunedScan(t, perf.NewCostModel(prof, 1, shape))
			if w := want[prof.Device][s]; got != w {
				t.Errorf("%s %v: %d of %d samples evaluated, want %d", prof.Name, shape, got, cooperativeSamples, w)
			}
		}
	}
}

// TestCooperativeWalkCount is the count gate on the solve's shared
// bisection walker: how many times one solve evaluates UnitCost, the
// saturation price included, at the paper's α = 1 for every profile,
// {linear, quadratic}. Like the sample counts, it depends on the profile's
// Δ alone and is exact. Without the walker every evaluated sample
// bisects from the root (≈ 31 evaluations each: 5,147 for a CPU profile,
// linear). The quadratic reference moves at every sample, so most of each
// walk is new there.
func TestCooperativeWalkCount(t *testing.T) {
	want := map[perf.Device][2]int{
		perf.DeviceCPU:     {363, 4564},
		perf.DeviceGPUP40:  {123, 5287},
		perf.DeviceGPU1070: {284, 4844},
		perf.DeviceGPU2080: {284, 4844},
	}
	for _, prof := range perf.AllProfiles() {
		for s, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
			model := perf.NewCostModel(prof, 1, shape)
			var w perf.ReferenceWalker
			got, _ := cooperativeScan(&w, model)
			if full := fullScanCooperative(model); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("%s %v: walked b = %v, full scan %v", prof.Name, shape, got, full)
			}
			if n := w.Evaluations(); n != want[prof.Device][s] {
				t.Errorf("%s %v: %d UnitCost evaluations a solve, want %d", prof.Name, shape, n, want[prof.Device][s])
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

// FuzzCooperativePrune checks the pruned scan against the full one on
// arbitrary valid profiles and cost models. The seeds are the two P40
// applications, the pruning's worst case.
func FuzzCooperativePrune(f *testing.F) {
	for _, name := range []string{"Jacobi", "TeaLeaf"} {
		prof, err := perf.ProfileByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prof.Sens, prof.MinAlloc, 1.0, false)
		f.Add(prof.Sens, prof.MinAlloc, 0.5, true)
	}
	f.Fuzz(func(t *testing.T, sens, minAlloc, alpha float64, quadratic bool) {
		prof := &perf.Profile{Name: "fuzz", Sens: sens, MinAlloc: minAlloc}
		if prof.Validate() != nil || math.IsInf(sens, 0) || !(alpha >= 0 && alpha <= 1e6) {
			t.Skip()
		}
		shape := perf.CostLinear
		if quadratic {
			shape = perf.CostQuadratic
		}
		checkPrunedScan(t, perf.NewCostModelUnchecked(prof, alpha, shape))
	})
}
