package sim

import (
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/hdr"
)

// Metric names the simulator registers in each run's registry (power
// controller metrics land in the same registry under the mpr_power_*
// names).
const (
	// MetricMarketInvocations counts overload-handling algorithm solves.
	MetricMarketInvocations = "mpr_sim_market_invocations_total"
	// MetricInfeasibleClears counts solves whose supply fell short of the
	// reduction target.
	MetricInfeasibleClears = "mpr_sim_infeasible_clears_total"
	// MetricInteractiveRounds is the per-invocation rounds histogram
	// (1 for one-shot algorithms).
	MetricInteractiveRounds = "mpr_sim_interactive_rounds"
	// MetricReductionLatency is the histogram of slots between computing
	// a reduction order and it taking effect (0 without market delay).
	MetricReductionLatency = "mpr_sim_reduction_latency_slots"
)

// simMetrics are the engine's per-run instrument handles.
type simMetrics struct {
	invocations *telemetry.Counter
	infeasible  *telemetry.Counter
	rounds      *hdr.Histogram
	latency     *hdr.Histogram
}

func newSimMetrics(reg *telemetry.Registry) simMetrics {
	return simMetrics{
		invocations: reg.Counter(MetricMarketInvocations, "Overload-handling algorithm solves."),
		infeasible:  reg.Counter(MetricInfeasibleClears, "Solves whose supply fell short of the target."),
		rounds:      reg.HDR(MetricInteractiveRounds, "Rounds per market invocation."),
		latency:     reg.HDR(MetricReductionLatency, "Slots from reduction order to application."),
	}
}
