package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// GenConfig parameterizes the synthetic workload generator. The generator
// first draws a target-utilization time series (a mean-reverting AR(1)
// process with diurnal and weekly modulation) and then spawns jobs to
// track it — directly controlling the utilization distribution, which is
// the workload property every oversubscription experiment depends on.
type GenConfig struct {
	Name       string
	Seed       int64
	TotalCores int
	Days       int
	// JobCount is the approximate number of jobs to emit; the generator
	// calibrates job runtimes so the requested utilization is reached
	// with roughly this many jobs.
	JobCount int
	// MeanUtil is the long-run mean of the target utilization.
	MeanUtil float64
	// UtilSigma is the per-minute innovation of the AR(1) process.
	UtilSigma float64
	// Revert is the AR(1) mean-reversion rate per minute.
	Revert float64
	// DiurnalAmp modulates the mean by ±amp over a day.
	DiurnalAmp float64
	// WeekendDip scales the weekend mean down by the given fraction.
	WeekendDip float64
	// MaxJobFrac caps a single job's size as a fraction of the cluster.
	MaxJobFrac float64
}

// runtimeSigma is the log-stddev of the lognormal runtime distribution;
// Generate calibrates the runtime scale from JobCount.
const runtimeSigma = 1.0

// Validate checks generator parameters.
func (c *GenConfig) Validate() error {
	if c.TotalCores <= 0 {
		return fmt.Errorf("trace: generator %s: total cores must be positive", c.Name)
	}
	if c.Days <= 0 {
		return fmt.Errorf("trace: generator %s: days must be positive", c.Name)
	}
	if c.JobCount <= 0 {
		return fmt.Errorf("trace: generator %s: job count must be positive", c.Name)
	}
	// A NaN passes every range check below and the defaults Generate
	// fills (each comparison is false), and an infinity the one-sided
	// ones, so both are refused first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MeanUtil", c.MeanUtil},
		{"MaxJobFrac", c.MaxJobFrac},
		{"UtilSigma", c.UtilSigma},
		{"Revert", c.Revert},
		{"DiurnalAmp", c.DiurnalAmp},
		{"WeekendDip", c.WeekendDip},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: generator %s: %s must be finite, got %v", c.Name, f.name, f.v)
		}
	}
	if c.MeanUtil <= 0 || c.MeanUtil >= 1 {
		return fmt.Errorf("trace: generator %s: mean utilization must be in (0,1)", c.Name)
	}
	if c.MaxJobFrac <= 0 || c.MaxJobFrac > 1 {
		return fmt.Errorf("trace: generator %s: max job fraction must be in (0,1]", c.Name)
	}
	return nil
}

// WithDays returns a copy of the config spanning the given number of days
// with the job count scaled proportionally — used to run shortened
// versions of the long PIK/RICC workloads in benchmarks.
func (c GenConfig) WithDays(days int) GenConfig {
	if days <= 0 || days == c.Days {
		return c
	}
	scaled := c
	scaled.JobCount = int(float64(c.JobCount) * float64(days) / float64(c.Days))
	if scaled.JobCount < 1 {
		scaled.JobCount = 1
	}
	scaled.Days = days
	return scaled
}

// jobSizer draws job core counts: powers of two with geometrically
// decaying weights, capped at maxCores — the canonical shape of parallel
// workload size distributions.
type jobSizer struct {
	sizes  []int
	cum    []float64
	meanSz float64
}

func newJobSizer(maxCores int) *jobSizer {
	const decay = 0.62
	s := &jobSizer{}
	w := 1.0
	totalW := 0.0
	weighted := 0.0
	for sz := 1; sz <= maxCores; sz *= 2 {
		s.sizes = append(s.sizes, sz)
		totalW += w
		weighted += w * float64(sz)
		s.cum = append(s.cum, totalW)
		w *= decay
	}
	for i := range s.cum {
		s.cum[i] /= totalW
	}
	s.meanSz = weighted / totalW
	return s
}

func (s *jobSizer) draw(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range s.cum {
		if u <= c {
			return s.sizes[i]
		}
	}
	return s.sizes[len(s.sizes)-1]
}

// Generate produces a deterministic synthetic trace for the config.
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.UtilSigma <= 0 {
		cfg.UtilSigma = 0.004
	}
	if cfg.Revert <= 0 {
		cfg.Revert = 0.005
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	minutes := cfg.Days * 24 * 60
	maxJob := int(cfg.MaxJobFrac * float64(cfg.TotalCores))
	if maxJob < 1 {
		maxJob = 1
	}
	sizer := newJobSizer(maxJob)

	// Calibrate the runtime scale so that the expected number of spawned
	// jobs matches JobCount: total core-minutes ≈ MeanUtil·cores·minutes,
	// and each job contributes meanSize·meanRuntime core-minutes.
	totalCoreMinutes := cfg.MeanUtil * float64(cfg.TotalCores) * float64(minutes)
	meanRuntime := totalCoreMinutes / (float64(cfg.JobCount) * sizer.meanSz)
	if meanRuntime < 5 {
		meanRuntime = 5
	}
	// Lognormal with mean = meanRuntime: μ = ln(mean) − σ²/2.
	const sigma = runtimeSigma
	mu := math.Log(meanRuntime) - sigma*sigma/2

	t := &Trace{Name: cfg.Name, TotalCores: cfg.TotalCores}
	releases := make([]int, minutes+1)
	cur := 0
	util := cfg.MeanUtil
	nextID := 1
	maxRuntime := float64(3 * 24 * 60) // cap at 3 days

	for m := 0; m < minutes; m++ {
		cur -= releases[m]

		// Target utilization: AR(1) around a modulated mean.
		day := (m / (24 * 60)) % 7
		weekend := 1.0
		if day >= 5 {
			weekend = 1 - cfg.WeekendDip
		}
		diurnal := 1 + cfg.DiurnalAmp*math.Sin(2*math.Pi*float64(m%(24*60))/(24*60)-math.Pi/2)
		mean := cfg.MeanUtil * diurnal * weekend
		util += cfg.Revert*(mean-util) + cfg.UtilSigma*rng.NormFloat64()
		if util < 0.02 {
			util = 0.02
		}
		if util > 0.995 {
			util = 0.995
		}

		target := int(util * float64(cfg.TotalCores))
		for cur < target {
			cores := sizer.draw(rng)
			if cores > cfg.TotalCores-cur {
				cores = cfg.TotalCores - cur
				if cores < 1 {
					break
				}
			}
			runtime := math.Exp(mu + sigma*rng.NormFloat64())
			if runtime < 5 {
				runtime = 5
			}
			if runtime > maxRuntime {
				runtime = maxRuntime
			}
			runMin := int(runtime)
			end := m + runMin
			if end > minutes {
				end = minutes
				runMin = end - m
				if runMin < 1 {
					runMin = 1
				}
			}
			if end <= len(releases)-1 {
				releases[end] += cores
			}
			// Submit lands exactly on the minute boundary so that the
			// minute-level release accounting matches the second-level
			// replay and the peak never exceeds the cluster.
			t.Jobs = append(t.Jobs, Job{
				ID:      nextID,
				Submit:  int64(m) * 60,
				Wait:    0,
				Runtime: int64(runMin) * 60,
				Cores:   cores,
			})
			nextID++
			cur += cores
		}
	}
	t.SortBySubmit()
	return t, nil
}

// ScaleUp returns a new trace whose load is scaled by the given factor
// (≥ 1) by probabilistically cloning jobs with jittered submit times —
// the paper's "workload scaled-up proportional to the extra capacity"
// (Table I). The cluster size grows by the same factor.
func (t *Trace) ScaleUp(factor float64, seed int64) (*Trace, error) {
	if factor < 1 {
		return nil, fmt.Errorf("trace: scale factor must be >= 1, got %v", factor)
	}
	rng := rand.New(rand.NewSource(seed))
	out := &Trace{
		Name:       fmt.Sprintf("%s-x%.2f", t.Name, factor),
		TotalCores: int(math.Ceil(float64(t.TotalCores) * factor)),
	}
	out.Jobs = append([]Job(nil), t.Jobs...)
	nextID := len(t.Jobs) + 1
	extra := factor - 1
	for _, j := range t.Jobs {
		copies := int(extra)
		if rng.Float64() < extra-float64(copies) {
			copies++
		}
		for c := 0; c < copies; c++ {
			clone := j
			clone.ID = nextID
			nextID++
			// Jitter the clone's submit by ±30 minutes, staying
			// non-negative.
			jitter := int64(rng.Intn(3600)) - 1800
			clone.Submit += jitter
			if clone.Submit < 0 {
				clone.Submit = 0
			}
			out.Jobs = append(out.Jobs, clone)
		}
	}
	out.SortBySubmit()
	return out, nil
}
