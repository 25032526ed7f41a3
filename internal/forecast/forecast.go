// Package forecast implements short-horizon power forecasting for
// predictive market invocation. Section III-D of the MPR paper notes that
// "to better accommodate MPR-INT, the HPC manager can invoke the market
// early by predicting power overloads and estimating the power/resource
// reduction goals" — this package provides that predictor.
//
// The model is Holt's double exponential smoothing (level + trend)
// augmented with an additive diurnal profile: HPC power has strong daily
// periodicity (Fig. 6), so the forecaster learns a per-time-of-day offset
// in addition to the short-term trend. Everything is O(1) per observation
// and per query — it runs every simulator slot.
package forecast

import "math"

// The smoothing constants. Overload anticipation needs the trend to catch
// demand ramps within a few slots, so level and trend react much faster
// than a long-horizon forecaster's would. They are typed, so an
// expression such as 1−trendBeta rounds once from the float64 value, as
// the same subtraction does at run time.
const (
	// levelAlpha smooths the level term and trendBeta the trend term.
	levelAlpha float64 = 0.5
	trendBeta  float64 = 0.35
	// seasonGamma smooths the diurnal profile.
	seasonGamma float64 = 0.05
	// phi damps the trend over multi-step forecasts: an h-step forecast
	// extrapolates trend·(φ + φ² + … + φʰ), the standard damped-trend
	// correction that keeps long-horizon predictions of periodic signals
	// from diverging.
	phi float64 = 0.95
	// period is the season length in observations: one day of
	// one-minute slots.
	period = 1440
)

// Forecaster is a Holt-Winters-style additive seasonal predictor.
//
// The first full period is buffered and used to initialize the
// decomposition (level = period mean, season = deviations from it);
// starting the recursion from zeros instead lets the level absorb the
// seasonality and destabilizes the trend.
type Forecaster struct {
	level  float64
	trend  float64
	season []float64
	warmup []float64 // first-period buffer; nil once initialized
	idx    int       // position within the period
}

// New builds a forecaster.
func New() *Forecaster {
	return &Forecaster{
		season: make([]float64, period),
		warmup: make([]float64, 0, period),
	}
}

// Ready reports whether the forecaster has completed its first-period
// initialization.
func (f *Forecaster) Ready() bool { return f.warmup == nil }

// Observe feeds one sample. Samples must arrive once a minute.
func (f *Forecaster) Observe(v float64) {
	if f.warmup != nil {
		f.level = v // last value, for pre-initialization predictions
		f.warmup = append(f.warmup, v)
		if len(f.warmup) == period {
			mean := 0.0
			for _, w := range f.warmup {
				mean += w
			}
			mean /= period
			f.level = mean
			f.trend = 0
			for i, w := range f.warmup {
				f.season[i] = w - mean
			}
			f.warmup = nil
			f.idx = 0
		}
		return
	}
	s := f.season[f.idx]
	deseason := v - s
	prevLevel := f.level
	f.level = levelAlpha*deseason + (1-levelAlpha)*(f.level+f.trend)
	f.trend = trendBeta*(f.level-prevLevel) + (1-trendBeta)*f.trend
	f.season[f.idx] = seasonGamma*(v-f.level) + (1-seasonGamma)*s
	f.idx = (f.idx + 1) % period
}

// Predict forecasts the value `ahead` observations into the future
// (ahead >= 1). Before the forecaster is Ready it returns the last level.
func (f *Forecaster) Predict(ahead int) float64 {
	if ahead < 1 {
		ahead = 1
	}
	if !f.Ready() {
		return f.level
	}
	seasonIdx := (f.idx + ahead - 1) % period
	// Damped trend: Σ_{i=1..h} φ^i = φ(1−φ^h)/(1−φ).
	trendSum := phi * (1 - math.Pow(phi, float64(ahead))) / (1 - phi)
	v := f.level + trendSum*f.trend + f.season[seasonIdx]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return f.level
	}
	return v
}

// PredictMax returns the maximum forecast over the next `horizon`
// observations — the conservative query overload prediction uses.
func (f *Forecaster) PredictMax(horizon int) float64 {
	if horizon < 1 {
		horizon = 1
	}
	max := math.Inf(-1)
	for h := 1; h <= horizon; h++ {
		if v := f.Predict(h); v > max {
			max = v
		}
	}
	return max
}
