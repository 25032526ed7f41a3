package carbon

import (
	"math"
	"testing"

	"mpr/internal/trace"
)

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GenConfig{
		Name: "carbon-test", Seed: 5, TotalCores: 128, Days: 5,
		JobCount: 600, MeanUtil: 0.65, MaxJobFrac: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSignalShape(t *testing.T) {
	s, err := NewSignal(7*24*60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots() != 7*24*60 {
		t.Errorf("slots = %d", s.Slots())
	}
	// Midday (13:00) must be cleaner than the evening peak (19:30).
	midday := s.IntensityAt(13 * 60)
	evening := s.IntensityAt(19*60 + 30)
	if midday >= evening {
		t.Errorf("midday %v should be cleaner than evening %v", midday, evening)
	}
	// All values above the clamp floor.
	for i := 0; i < s.Slots(); i += 17 {
		if v := s.IntensityAt(i); v < 50 {
			t.Fatalf("intensity %v below floor at slot %d", v, i)
		}
	}
	// Deterministic per seed.
	s2, _ := NewSignal(7*24*60, 1)
	for i := 0; i < s.Slots(); i += 101 {
		if s.IntensityAt(i) != s2.IntensityAt(i) {
			t.Fatal("signal not deterministic")
		}
	}
	// Mean within a sane band.
	if m := s.Mean(); m < 300 || m > 500 {
		t.Errorf("mean intensity = %v", m)
	}
}

func TestSignalValidation(t *testing.T) {
	if _, err := NewSignal(0, 1); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestSignalBoundsHandling(t *testing.T) {
	s, _ := NewSignal(100, 2)
	if s.IntensityAt(-5) != s.IntensityAt(0) {
		t.Error("negative slot should clamp")
	}
	_ = s.IntensityAt(10_000) // beyond horizon: clamps to last noise
}

func TestDemandResponseSavesCarbon(t *testing.T) {
	res, err := Run(Config{Trace: testTrace(t), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.DREvents == 0 || res.DRSlots == 0 {
		t.Fatal("no demand-response events triggered")
	}
	if res.SavedKgCO2 <= 0 || res.EnergySavedKWh <= 0 {
		t.Errorf("no savings: %+v", res)
	}
	if res.SavedKgCO2 >= res.BaselineKgCO2 {
		t.Errorf("saved %v should be a fraction of baseline %v", res.SavedKgCO2, res.BaselineKgCO2)
	}
	// A meaningful but bounded share of emissions (reduction is capped
	// at 30% of dynamic power during dirty hours only).
	frac := res.SavedKgCO2 / res.BaselineKgCO2
	if frac < 0.005 || frac > 0.3 {
		t.Errorf("savings fraction %.3f outside plausible band", frac)
	}
}

func TestDemandResponseUsersProfit(t *testing.T) {
	res, err := Run(Config{Trace: testTrace(t), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostCoreH <= 0 {
		t.Fatal("no cost accrued")
	}
	if res.RewardPercent() <= 100 {
		t.Errorf("reward %.0f%% of cost, want > 100%% (cooperative bids never lose)", res.RewardPercent())
	}
}

func TestDemandResponseThresholdControlsAggressiveness(t *testing.T) {
	tr := testTrace(t)
	low, err := Run(Config{Trace: tr, Seed: 7, ThresholdG: 380})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{Trace: tr, Seed: 7, ThresholdG: 480})
	if err != nil {
		t.Fatal(err)
	}
	if low.DRSlots <= high.DRSlots {
		t.Errorf("lower threshold should trigger more DR: %d vs %d", low.DRSlots, high.DRSlots)
	}
	if low.SavedKgCO2 <= high.SavedKgCO2 {
		t.Errorf("lower threshold should save more: %v vs %v", low.SavedKgCO2, high.SavedKgCO2)
	}
}

func TestDemandResponseValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Trace: &trace.Trace{Name: "empty", TotalCores: 8}}); err == nil {
		t.Error("trace without jobs accepted")
	}
}

func TestDemandResponseDeterministic(t *testing.T) {
	tr := testTrace(t)
	a, err := Run(Config{Trace: tr, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Trace: tr, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.SavedKgCO2-b.SavedKgCO2) > 1e-9 || a.DREvents != b.DREvents {
		t.Error("demand response not deterministic")
	}
}
