package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/stats"
)

// Config parameterizes the prototype emulation.
type Config struct {
	// Apps to run; DefaultApps() when empty.
	Apps []AppSpec
	// CapacityW is the power cap creating overloads (paper: 400 W).
	CapacityW float64
	// UseMPR selects whether the manager handles overloads with the MPR
	// market (true) or leaves the overload standing (false) — the two
	// Fig. 17 experiment arms.
	UseMPR bool
	// Interactive selects MPR-INT bidding (rational agents per price
	// round) instead of MPR-STAT static cooperative bids.
	Interactive bool
	// MeterNoiseW is the Gaussian sigma of the power meter.
	MeterNoiseW float64
	// PhaseAmp adds a slow sinusoidal power phase per app (fraction of
	// dynamic power) so the controller sees realistic variation.
	PhaseAmp float64
	// Seed drives meter noise and phase offsets.
	Seed int64
	// MinOverloadTicks and CooldownTicks parameterize the emergency
	// controller in seconds (paper: 10 s minimum overload, 60 s
	// cool-down for prototype-scale experiments).
	MinOverloadTicks int
	CooldownTicks    int
}

func (c *Config) normalize() error {
	if len(c.Apps) == 0 {
		c.Apps = DefaultApps()
	}
	if c.CapacityW <= 0 {
		c.CapacityW = 400
	}
	if c.MeterNoiseW < 0 {
		return fmt.Errorf("cluster: meter noise must be non-negative")
	}
	if c.MeterNoiseW == 0 {
		c.MeterNoiseW = 2
	}
	if c.PhaseAmp < 0 || c.PhaseAmp > 0.5 {
		return fmt.Errorf("cluster: phase amplitude must be in [0, 0.5]")
	}
	if c.MinOverloadTicks <= 0 {
		c.MinOverloadTicks = 10
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 60
	}
	return nil
}

// AppOutcome summarizes one application after a run.
type AppOutcome struct {
	Name string
	// MeanAlloc is the time-averaged per-core allocation.
	MeanAlloc float64
	// ReductionCoreSeconds integrates the resource reduction over time
	// (Fig. 17(b)).
	ReductionCoreSeconds float64
	// WorkDone is the full-speed-equivalent seconds of work completed.
	WorkDone float64
	// PaymentCoreSeconds integrates q·δ over time.
	PaymentCoreSeconds float64
}

// RunResult is the outcome of a prototype run.
type RunResult struct {
	// PowerSeries is the metered power per second (Fig. 17(a)).
	PowerSeries *stats.Series
	// Emergencies counts declared power emergencies.
	Emergencies int
	// OverloadSeconds counts seconds with true power above capacity.
	OverloadSeconds int
	// Apps summarizes per-application outcomes in config order.
	Apps []AppOutcome
}

// Cluster is the emulated two-server prototype.
type Cluster struct {
	cfg  Config
	apps []*app
	rng  *rand.Rand
	ec   *power.EmergencyController

	tick        int
	phaseOffset []float64
	emergencies int
	overloadSec int
	price       float64
	emergency   bool

	powerSeries stats.Series
	reductions  []float64 // integrated δ·seconds per app
	payments    []float64

	// coop remembers each application's solved cooperative bid across
	// the run's clears; an app's cost model never changes.
	coop core.CooperativeBids
}

// New builds the emulated cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ec, err := power.NewEmergencyController(power.EmergencyConfig{
		CapacityW:        cfg.CapacityW,
		MinOverloadSlots: cfg.MinOverloadTicks,
		CooldownSlots:    cfg.CooldownTicks,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), ec: ec}
	for _, spec := range cfg.Apps {
		a, err := newApp(spec, 1, perf.CostLinear)
		if err != nil {
			return nil, err
		}
		c.apps = append(c.apps, a)
		c.phaseOffset = append(c.phaseOffset, c.rng.Float64()*2*math.Pi)
	}
	c.reductions = make([]float64, len(c.apps))
	c.payments = make([]float64, len(c.apps))
	return c, nil
}

// TotalCores returns the cluster's core count (40 for the default apps —
// the paper's two Dell PowerEdge servers).
func (c *Cluster) TotalCores() int {
	n := 0
	for _, a := range c.apps {
		n += a.spec.Cores
	}
	return n
}

// truePowerW computes the instantaneous power with phase modulation.
func (c *Cluster) truePowerW() float64 {
	var total float64
	for i, a := range c.apps {
		p := a.powerW()
		if c.cfg.PhaseAmp > 0 {
			dyn := a.dynPowerPerCore() * float64(a.spec.Cores)
			p += dyn * c.cfg.PhaseAmp * math.Sin(2*math.Pi*float64(c.tick)/300+c.phaseOffset[i])
		}
		total += p
	}
	return total
}

// meteredPowerW adds meter noise to the true power.
func (c *Cluster) meteredPowerW(trueW float64) float64 {
	return trueW + c.cfg.MeterNoiseW*c.rng.NormFloat64()
}

// Step advances the emulation by one second of virtual time.
func (c *Cluster) Step() {
	trueW := c.truePowerW()
	metered := c.meteredPowerW(trueW)
	if trueW > c.cfg.CapacityW {
		c.overloadSec++
	}

	// Demand: what the cluster would draw at full speed (with phases).
	var demandW float64
	for i, a := range c.apps {
		full := float64(a.spec.Cores) * (a.spec.StaticWPerCore + a.spec.DynMaxWPerCore)
		if c.cfg.PhaseAmp > 0 {
			dyn := a.spec.DynMaxWPerCore * float64(a.spec.Cores)
			full += dyn * c.cfg.PhaseAmp * math.Sin(2*math.Pi*float64(c.tick)/300+c.phaseOffset[i])
		}
		demandW += full
	}

	d := c.ec.Step(demandW, metered)
	switch {
	case d.Declare || d.Raise:
		if d.Declare {
			c.emergencies++
		}
		c.emergency = true
		if c.cfg.UseMPR {
			c.clearMarket(d.TargetW)
		}
	case d.Lift:
		c.emergency = false
		c.price = 0
		for _, a := range c.apps {
			a.setAlloc(1)
		}
	}

	// Integrate statistics and progress work.
	for i, a := range c.apps {
		if c.emergency {
			delta := (1 - a.alloc()) * float64(a.spec.Cores)
			c.reductions[i] += delta
			c.payments[i] += c.price * delta
		}
		a.workDone += a.speed()
	}
	c.powerSeries.Append(int64(c.tick), metered)
	c.tick++
}

// clearMarket builds market participants from the running applications
// and applies the cleared reductions via DVFS.
func (c *Cluster) clearMarket(targetW float64) {
	parts := make([]*core.Participant, len(c.apps))
	bidders := make([]core.Bidder, len(c.apps))
	for i, a := range c.apps {
		parts[i] = &core.Participant{
			JobID:        a.spec.Name,
			Cores:        float64(a.spec.Cores),
			Bid:          c.coop.Bid(float64(a.spec.Cores), a.model),
			WattsPerCore: a.wattsPerCoreReduction(),
			MaxFrac:      1 - FreqMin/FreqMax,
		}
		bidders[i] = &core.RationalBidder{Cores: float64(a.spec.Cores), Model: a.model}
	}
	var res *core.ClearingResult
	var err error
	if c.cfg.Interactive {
		res, err = core.ClearInteractive(parts, bidders, targetW, core.InteractiveConfig{})
	} else {
		res, err = core.Clear(parts, targetW)
	}
	if err != nil {
		return // no participants; leave allocations unchanged
	}
	c.price = res.Price
	for i, a := range c.apps {
		x := res.Reductions[i] / float64(a.spec.Cores)
		a.setAlloc(1 - x)
	}
}

// RunFor advances the emulation by the given number of virtual seconds.
func (c *Cluster) RunFor(seconds int) {
	for i := 0; i < seconds; i++ {
		c.Step()
	}
}

// Result snapshots the run statistics.
func (c *Cluster) Result() *RunResult {
	res := &RunResult{
		PowerSeries:     &c.powerSeries,
		Emergencies:     c.emergencies,
		OverloadSeconds: c.overloadSec,
	}
	for i, a := range c.apps {
		mean := 1.0
		if c.tick > 0 {
			mean = 1 - c.reductions[i]/float64(a.spec.Cores)/float64(c.tick)
		}
		res.Apps = append(res.Apps, AppOutcome{
			Name:                 a.spec.Name,
			MeanAlloc:            mean,
			ReductionCoreSeconds: c.reductions[i],
			WorkDone:             a.workDone,
			PaymentCoreSeconds:   c.payments[i],
		})
	}
	return res
}

// FreqSweepPoint is one sample of the Fig. 16 characterization.
type FreqSweepPoint struct {
	App string
	// FreqGHz is the DVFS setting.
	FreqGHz float64
	// DynPowerW is the application's dynamic power at that frequency
	// (Fig. 16(a)).
	DynPowerW float64
	// NormRuntime is the execution time normalized to FreqMax
	// (Fig. 16(b)).
	NormRuntime float64
}

// FreqSweep characterizes every application across the DVFS range —
// the prototype measurements of Fig. 16.
func FreqSweep(apps []AppSpec, points int) ([]FreqSweepPoint, error) {
	if points < 2 {
		points = 2
	}
	var out []FreqSweepPoint
	for _, spec := range apps {
		a, err := newApp(spec, 1, perf.CostLinear)
		if err != nil {
			return nil, err
		}
		for i := 0; i < points; i++ {
			f := FreqMin + (FreqMax-FreqMin)*float64(i)/float64(points-1)
			a.freqGHz = f
			sp := a.speed()
			out = append(out, FreqSweepPoint{
				App:         spec.Name,
				FreqGHz:     f,
				DynPowerW:   a.dynPowerPerCore() * float64(spec.Cores),
				NormRuntime: 1 / sp,
			})
		}
	}
	return out, nil
}
