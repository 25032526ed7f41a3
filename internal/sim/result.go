package sim

import (
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/tsdb"
)

// ProfileStats aggregates market outcomes per application profile — the
// data behind Figs. 9(c)/9(d) and 15(c)/15(d).
type ProfileStats struct {
	Jobs           int
	ReductionCoreH float64
	CostCoreH      float64
	PaymentCoreH   float64
}

// JobOutcome is one job's recorded timeline (Config.RecordJobs): the
// per-job pinning surface of the Run-vs-RunFixedStep differential in
// internal/check.
type JobOutcome struct {
	ID         int
	Cores      int
	SubmitSlot int
	StartSlot  int
	EndSlot    int
	Started    bool
	Done       bool
	Affected   bool
	// RemainingMin is the job's remaining work when the run ended (at or
	// below the finish threshold for completed jobs), recorded bit-exactly
	// so the differential pins per-slot progress arithmetic, not just
	// integer timelines.
	RemainingMin float64
}

// Result carries everything the evaluation figures need from one run.
type Result struct {
	Algorithm  Algorithm
	TraceName  string
	OversubPct float64

	// CapacityW is the oversubscribed capacity; PeakW the workload's
	// unreduced peak power.
	CapacityW float64
	PeakW     float64

	// Slots is the simulated duration in one-minute slots.
	Slots int
	// OverloadSlots counts slots where delivered power exceeded
	// capacity (Fig. 8(a)); OverloadMinutes is the same in minutes.
	OverloadSlots int
	// EmergencyCount is the number of declared emergencies and
	// EmergencySlots the total slots spent under an active emergency.
	EmergencyCount int
	EmergencySlots int
	// InfeasibleEvents counts emergencies the algorithm could not fully
	// supply (EQL on heterogeneous systems, Fig. 15(b)).
	InfeasibleEvents int

	// JobsTotal counts simulated jobs; JobsCompleted those that finished
	// within the horizon; JobsAffected those active during any emergency
	// (Fig. 8(c)).
	JobsTotal     int
	JobsCompleted int
	JobsAffected  int

	// ReductionCoreH is the total resource reduction (Fig. 8(d)),
	// CostCoreH the total user cost of performance loss (Fig. 9(a)),
	// PaymentCoreH the manager's total incentive payoff (Fig. 11), all
	// in core-hours.
	ReductionCoreH float64
	CostCoreH      float64
	PaymentCoreH   float64

	// ExtraCapacityCoreH is the core-hours of capacity oversubscription
	// added over the horizon; UsedExtraCoreH is how much of it the
	// workload actually consumed (the HPC manager's gain, Fig. 11(b)).
	ExtraCapacityCoreH float64
	UsedExtraCoreH     float64

	// MeanRuntimeIncrease is the average fractional runtime increase of
	// affected, completed jobs vs their trace runtime (Fig. 9(b)).
	MeanRuntimeIncrease float64
	// MeanQueueWaitMin is the average queuing delay in minutes beyond
	// the trace's submit time — emergencies halt admissions, so this is
	// the admission-side cost of overload handling.
	MeanQueueWaitMin float64

	// MarketInvocations counts market/algorithm solves; MeanRounds the
	// average interactive rounds per solve (1 for non-interactive).
	MarketInvocations int
	MeanRounds        float64
	// MeanClearingPrice averages the clearing price over market
	// invocations (market algorithms only).
	MeanClearingPrice float64

	// PerProfile aggregates per-application outcomes.
	PerProfile map[string]*ProfileStats

	// Jobs holds per-job timelines when Config.RecordJobs is set, in
	// trace order.
	Jobs []JobOutcome

	// Series is the run's sampled time-series store when
	// Config.SampleSeries is set: per-slot power, overload, price,
	// reduction, and bidder series (names in sampler.go), one sample per
	// slot, queryable by window and exportable as JSONL.
	Series *tsdb.Store

	// Spans are the run's completed hierarchical trace spans, in
	// completion order: each emergency (attributes slot, algo, lift_slot)
	// contains its market-invocation children (slot, price, target_w,
	// feasible, rounds) and, for MPR-INT, per-round grandchildren with the
	// bid fan-out. Nil unless Config.TraceEvents is positive; it caps how
	// many are kept.
	Spans []telemetry.Span
}

// RewardPercent returns the users' reward as a percentage of their cost
// (Fig. 11(a)); >100 means users profit from participating.
func (r *Result) RewardPercent() float64 {
	if r.CostCoreH <= 0 {
		return 0
	}
	return 100 * r.PaymentCoreH / r.CostCoreH
}

// GainRatio returns the manager's gained capacity per core-hour of
// incentive payoff (Fig. 11(b)): the core-hours oversubscription added,
// divided by what was paid back to users.
func (r *Result) GainRatio() float64 {
	if r.PaymentCoreH <= 0 {
		return 0
	}
	return r.ExtraCapacityCoreH / r.PaymentCoreH
}

// OverloadFraction is the fraction of time spent overloaded (Fig. 8(a)).
func (r *Result) OverloadFraction() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.OverloadSlots) / float64(r.Slots)
}

// AffectedFraction is the fraction of jobs affected by overloads
// (Fig. 8(c)).
func (r *Result) AffectedFraction() float64 {
	if r.JobsTotal == 0 {
		return 0
	}
	return float64(r.JobsAffected) / float64(r.JobsTotal)
}
