// Package sim is the trace-driven HPC simulator of the MPR reproduction
// (Section IV-A): it replays a workload trace in one-minute slots,
// attributes power to jobs with the paper's power model, detects overloads
// of the oversubscribed capacity, invokes an overload-handling algorithm
// (MPR-STAT, MPR-INT, OPT, or EQL), stretches slowed jobs' execution, and
// accounts costs, rewards, and all the statistics the paper's evaluation
// figures report.
package sim

import (
	"fmt"
	"math"

	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/trace"
)

// Algorithm selects the overload-handling strategy.
type Algorithm string

// The paper's four benchmark algorithms.
const (
	AlgOPT     Algorithm = "OPT"
	AlgEQL     Algorithm = "EQL"
	AlgMPRStat Algorithm = "MPR-STAT"
	AlgMPRInt  Algorithm = "MPR-INT"
	// AlgNone disables overload handling (the "no oversubscription
	// handling" reference for runtime-increase measurements).
	AlgNone Algorithm = "NONE"
)

// Algorithms lists the paper's benchmark set in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgOPT, AlgEQL, AlgMPRStat, AlgMPRInt}
}

// phasePeriodSlots is the period of PhaseAmp's power phases: 90 minutes.
const phasePeriodSlots = 90

// Config parameterizes one simulation run.
type Config struct {
	// Trace is the workload to replay.
	Trace *trace.Trace
	// OversubPct is the oversubscription level x: the capacity is set to
	// peak/(1+x/100) (Section IV-A).
	OversubPct float64
	// CapacityOverrideW, when positive, fixes the capacity in watts
	// instead of deriving it from the workload's peak — used by the
	// partitioned-infrastructure study where each domain gets a share of
	// a common UPS.
	CapacityOverrideW float64
	// Algorithm is the overload-handling strategy.
	Algorithm Algorithm
	// Seed drives profile assignment, participation draws, and cost
	// perturbations.
	Seed int64
	// CoreModel is the default per-core power model (the paper's
	// 25 W + 125 W for CPU clusters).
	CoreModel power.CoreModel
	// Profiles are assigned uniformly at random to jobs (Section IV-B).
	Profiles []*perf.Profile
	// AppPower optionally overrides the power model per profile name —
	// used by the heterogeneous GPU evaluation where "one core" is
	// normalized to each application's maximum power.
	AppPower map[string]power.CoreModel
	// CostShape is the user cost model's shape (Eqn. (6)); its scale α
	// is 1.
	CostShape perf.CostShape
	// Participation is the fraction of users taking part in the market
	// (Fig. 12); it only affects MPR-STAT and MPR-INT.
	Participation float64
	// CostErrorRand adds a per-job uniform ±fraction error to the cost
	// model used for *bidding* (true costs are still charged), and
	// CostErrorUnder systematically underestimates it (Fig. 13).
	CostErrorRand  float64
	CostErrorUnder float64
	// StatBidFactor scales the cooperative bid's reluctance for
	// MPR-STAT: 1 = cooperative, >1 conservative, <1 deficient.
	StatBidFactor float64
	// CooldownSlots parameterizes the emergency controller (default 10,
	// Section IV-A), which declares on the first overloaded slot;
	// BufferFrac is the reduction-target safety buffer (default 0.01).
	CooldownSlots int
	BufferFrac    float64
	// MarketDelaySlots delays the reduction taking effect after an
	// emergency is declared — modeling MPR-INT's communication rounds
	// (the paper charges 500 ms per round; a 30-round market is half a
	// one-minute slot, a slow manual market can take several).
	MarketDelaySlots int
	// Predictive enables overload anticipation (Section III-D): the
	// manager gates job admissions on remaining power headroom (a batch
	// of starts can no longer jump the system over capacity) and, when
	// demand approaches capacity, invokes the market early from a power
	// forecast so the reduction is in force before the breach.
	Predictive bool
	// PredictHorizonSlots is the forecast look-ahead (default
	// MarketDelaySlots+2).
	PredictHorizonSlots int
	// PhaseAmp adds per-job power phases: each job's dynamic power is
	// modulated by ±PhaseAmp sinusoidally over phasePeriodSlots with a
	// random offset — the phase behaviour that makes proactive
	// power-aware scheduling hard and that MPR's reactive design
	// sidesteps (Section I). Zero disables phases.
	PhaseAmp float64
	// SampleSeries enables the per-slot time-series sampler: the run
	// records cluster power, overload depth, clearing price, reduction
	// target/cleared/unmet, active-bidder count, and emergency state into
	// Result.Series (an embedded ring-per-series store, see
	// internal/telemetry/tsdb). Timestamps are virtual slots, so exports
	// are bit-identical across worker counts.
	SampleSeries bool
	// SeriesCapacity is the number of samples each sampled series keeps,
	// the newest ones (default 4096, ~2.8 days of slots). RunSlots(trace)
	// keeps the whole run.
	SeriesCapacity int
	// TraceEvents, when positive, sizes the run's span ring
	// (Result.Spans), at least 16. Zero, the default, retains no spans:
	// callers keep Results (the experiments' cache, the benchmark's laps),
	// so a run without TraceEvents builds no tracer at all. Negative is an
	// error.
	TraceEvents int
	// RecordJobs records every job's timeline (submit/start/end slots,
	// completion, affectedness, final remaining work) into Result.Jobs —
	// the per-job pinning surface of the Run-vs-RunFixedStep differential
	// in internal/check. Off by default: large traces should not pay the
	// memory.
	RecordJobs bool
}

// Normalize fills defaults and validates the configuration.
func (c *Config) Normalize() error {
	if c.Trace == nil || len(c.Trace.Jobs) == 0 {
		return fmt.Errorf("sim: config needs a non-empty trace")
	}
	if err := c.Trace.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// A NaN slips through every range check below (each comparison is
	// false) and an infinity through the one-sided ones, so both are
	// refused first, before any default is filled.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"OversubPct", c.OversubPct},
		{"CapacityOverrideW", c.CapacityOverrideW},
		{"Participation", c.Participation},
		{"CostErrorRand", c.CostErrorRand},
		{"CostErrorUnder", c.CostErrorUnder},
		{"StatBidFactor", c.StatBidFactor},
		{"PhaseAmp", c.PhaseAmp},
		{"BufferFrac", c.BufferFrac},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s must be finite, got %v", f.name, f.v)
		}
	}
	if c.OversubPct < 0 {
		return fmt.Errorf("sim: oversubscription must be non-negative, got %v", c.OversubPct)
	}
	switch c.Algorithm {
	case AlgOPT, AlgEQL, AlgMPRStat, AlgMPRInt, AlgNone:
	case "":
		c.Algorithm = AlgMPRStat
	default:
		return fmt.Errorf("sim: unknown algorithm %q", c.Algorithm)
	}
	if c.CoreModel == (power.CoreModel{}) {
		c.CoreModel = power.DefaultCPUCoreModel
	}
	if len(c.Profiles) == 0 {
		c.Profiles = perf.CPUProfiles()
	}
	for i, p := range c.Profiles {
		if p == nil {
			return fmt.Errorf("sim: profile %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if c.Participation == 0 {
		c.Participation = 1
	}
	if c.Participation < 0 || c.Participation > 1 {
		return fmt.Errorf("sim: participation must be in [0,1], got %v", c.Participation)
	}
	if c.StatBidFactor == 0 {
		c.StatBidFactor = 1
	}
	if c.StatBidFactor < 0 {
		return fmt.Errorf("sim: bid factor must be non-negative, got %v", c.StatBidFactor)
	}
	if c.CostErrorRand < 0 || c.CostErrorRand >= 1 {
		return fmt.Errorf("sim: random cost error must be in [0,1), got %v", c.CostErrorRand)
	}
	if c.CostErrorUnder < 0 || c.CostErrorUnder >= 1 {
		return fmt.Errorf("sim: cost underestimation must be in [0,1), got %v", c.CostErrorUnder)
	}
	if c.MarketDelaySlots < 0 {
		return fmt.Errorf("sim: market delay must be non-negative, got %d", c.MarketDelaySlots)
	}
	if c.PredictHorizonSlots == 0 {
		c.PredictHorizonSlots = c.MarketDelaySlots + 2
	}
	if c.PredictHorizonSlots < 1 {
		return fmt.Errorf("sim: prediction horizon must be positive, got %d", c.PredictHorizonSlots)
	}
	if c.PhaseAmp < 0 || c.PhaseAmp > 0.5 {
		return fmt.Errorf("sim: phase amplitude must be in [0, 0.5], got %v", c.PhaseAmp)
	}
	if c.TraceEvents < 0 {
		return fmt.Errorf("sim: trace span window must be non-negative, got %d", c.TraceEvents)
	}
	return nil
}

func (c *Config) coreModelFor(profileName string) power.CoreModel {
	if m, ok := c.AppPower[profileName]; ok {
		return m
	}
	return c.CoreModel
}
