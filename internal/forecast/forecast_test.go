package forecast

import (
	"math"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
)

func TestConstantSeries(t *testing.T) {
	f := New()
	for i := 0; i < period+100; i++ {
		f.Observe(500)
	}
	for _, h := range []int{1, 5, 20} {
		if v := f.Predict(h); !floats.AbsEqual(v, 500, 1) {
			t.Errorf("Predict(%d) = %v on constant 500", h, v)
		}
	}
}

func TestLinearTrend(t *testing.T) {
	// A flat first day initializes a zero season; the ramp follows.
	f := New()
	for i := 0; i < period; i++ {
		f.Observe(100)
	}
	for i := 0; i < 300; i++ {
		f.Observe(100 + 2*float64(i))
	}
	// Next value should be ~100 + 2*300 = 700; 10 ahead ~718.
	if v := f.Predict(1); !floats.AbsEqual(v, 702, 20) {
		t.Errorf("Predict(1) = %v, want ~702", v)
	}
	if v10, v1 := f.Predict(10), f.Predict(1); v10 <= v1 {
		t.Errorf("trend not extrapolated: %v <= %v", v10, v1)
	}
}

func TestDiurnalPattern(t *testing.T) {
	f := New()
	wave := func(i int) float64 {
		return 1000 + 200*math.Sin(2*math.Pi*float64(i%period)/period)
	}
	for i := 0; i < 30*period; i++ {
		f.Observe(wave(i))
	}
	// After many periods, one-step forecasts should track the wave.
	var errSum float64
	n := 30 * period
	for h := 1; h <= period; h++ {
		pred := f.Predict(h)
		truth := wave(n + h - 1)
		errSum += math.Abs(pred - truth)
	}
	if mean := errSum / period; mean > 40 {
		t.Errorf("mean absolute error %v over one period, want < 40", mean)
	}
}

func TestPredictMaxCoversPeak(t *testing.T) {
	f := New()
	wave := func(i int) float64 {
		return 1000 + 300*math.Sin(2*math.Pi*float64(i%period)/period)
	}
	for i := 0; i < 40*period; i++ {
		f.Observe(wave(i))
	}
	// The max over a full period must anticipate the crest well above
	// the 1000 mean (exponential smoothing damps part of the amplitude).
	if v := f.PredictMax(period); v < 1100 {
		t.Errorf("PredictMax = %v, want well above the 1000 mean", v)
	}
	if f.PredictMax(1) != f.Predict(1) {
		t.Error("PredictMax(1) should equal Predict(1)")
	}
}

func TestNotReadyFallsBack(t *testing.T) {
	f := New()
	if f.Ready() {
		t.Error("ready with no data")
	}
	f.Observe(700)
	if v := f.Predict(3); !floats.AbsEqual(v, 700, 1e-9) {
		t.Errorf("unready prediction = %v, want last value", v)
	}
	for i := 0; i < period-2; i++ {
		f.Observe(700)
	}
	if f.Ready() {
		t.Error("ready a sample before the period is full")
	}
	f.Observe(700)
	if !f.Ready() {
		t.Error("not ready after a full period")
	}
}

func TestPredictClampsHorizon(t *testing.T) {
	f := New()
	for i := 0; i < period+10; i++ {
		f.Observe(100)
	}
	if f.Predict(0) != f.Predict(1) {
		t.Error("Predict(0) should clamp to 1")
	}
	if f.PredictMax(0) != f.Predict(1) {
		t.Error("PredictMax(0) should clamp to 1")
	}
}

// Property: predictions stay finite for arbitrary bounded inputs, fed
// cyclically for two periods so the seasonal recursion runs.
func TestPredictionFinite(t *testing.T) {
	prop := func(raw []float64) bool {
		var vs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, math.Mod(v, 1e6))
			}
		}
		f := New()
		for i := 0; len(vs) > 0 && i < 2*period; i++ {
			f.Observe(vs[i%len(vs)])
		}
		for h := 1; h <= 10; h++ {
			v := f.Predict(h)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
