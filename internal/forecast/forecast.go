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

import (
	"fmt"
	"math"
)

// Config parameterizes the forecaster. Zero values select defaults.
type Config struct {
	// LevelAlpha is the smoothing factor of the level term (default 0.3).
	LevelAlpha float64
	// TrendBeta is the smoothing factor of the trend term (default 0.1).
	TrendBeta float64
	// SeasonGamma is the smoothing factor of the diurnal profile
	// (default 0.05).
	SeasonGamma float64
	// Period is the season length in observations (default 1440 — one
	// day of one-minute slots).
	Period int
	// Phi damps the trend over multi-step forecasts (default 0.85):
	// an h-step forecast extrapolates trend·(φ + φ² + … + φʰ), the
	// standard damped-trend correction that keeps long-horizon
	// predictions of periodic signals from diverging.
	Phi float64
}

func (c *Config) normalize() error {
	if c.LevelAlpha == 0 {
		c.LevelAlpha = 0.3
	}
	if c.TrendBeta == 0 {
		c.TrendBeta = 0.1
	}
	if c.SeasonGamma == 0 {
		c.SeasonGamma = 0.05
	}
	if c.Period == 0 {
		c.Period = 1440
	}
	if c.Phi == 0 {
		c.Phi = 0.85
	}
	if c.Phi < 0 || c.Phi > 1 {
		return fmt.Errorf("forecast: trend damping must be in [0,1], got %v", c.Phi)
	}
	for _, v := range []float64{c.LevelAlpha, c.TrendBeta, c.SeasonGamma} {
		if v < 0 || v > 1 {
			return fmt.Errorf("forecast: smoothing factors must be in [0,1], got %v", v)
		}
	}
	if c.Period < 1 {
		return fmt.Errorf("forecast: period must be positive, got %d", c.Period)
	}
	return nil
}

// Forecaster is a Holt-Winters-style additive seasonal predictor.
//
// The first full period is buffered and used to initialize the
// decomposition (level = period mean, season = deviations from it);
// starting the recursion from zeros instead lets the level absorb the
// seasonality and destabilizes the trend.
type Forecaster struct {
	cfg    Config
	level  float64
	trend  float64
	season []float64
	warmup []float64 // first-period buffer; nil once initialized
	idx    int       // position within the period
}

// New builds a forecaster.
func New(cfg Config) (*Forecaster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Forecaster{
		cfg:    cfg,
		season: make([]float64, cfg.Period),
		warmup: make([]float64, 0, cfg.Period),
	}, nil
}

// Ready reports whether the forecaster has completed its first-period
// initialization.
func (f *Forecaster) Ready() bool { return f.warmup == nil }

// Observe feeds one sample. Samples must arrive at a fixed cadence
// matching the configured period.
func (f *Forecaster) Observe(v float64) {
	c := f.cfg
	if f.warmup != nil {
		f.level = v // last value, for pre-initialization predictions
		f.warmup = append(f.warmup, v)
		if len(f.warmup) == c.Period {
			mean := 0.0
			for _, w := range f.warmup {
				mean += w
			}
			mean /= float64(c.Period)
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
	f.level = c.LevelAlpha*deseason + (1-c.LevelAlpha)*(f.level+f.trend)
	f.trend = c.TrendBeta*(f.level-prevLevel) + (1-c.TrendBeta)*f.trend
	f.season[f.idx] = c.SeasonGamma*(v-f.level) + (1-c.SeasonGamma)*s
	f.idx = (f.idx + 1) % c.Period
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
	seasonIdx := (f.idx + ahead - 1) % f.cfg.Period
	// Damped trend: Σ_{i=1..h} φ^i = φ(1−φ^h)/(1−φ).
	phi := f.cfg.Phi
	trendSum := float64(ahead)
	if phi < 1 {
		trendSum = phi * (1 - math.Pow(phi, float64(ahead))) / (1 - phi)
	}
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
