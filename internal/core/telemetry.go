package core

import (
	"sync/atomic"

	"mpr/internal/telemetry"
	"mpr/internal/telemetry/hdr"
)

// Metric names the core market registers. Exported as constants so shims,
// dashboards, and tests address them without string drift.
const (
	// MetricPriceSearches counts full MClr price solves (any mode).
	MetricPriceSearches = "mpr_core_price_searches_total"
	// MetricCappedShortCircuits counts ClearCapped calls settled at the
	// price cap without running a price search.
	MetricCappedShortCircuits = "mpr_core_capped_short_circuits_total"
	// MetricClears counts market clears, labeled by the solver that ran:
	// "closed_form" (MarketIndex.ClearInto) or "streaming"
	// (StreamMarket.ClearInto, once per materialized round, not per Apply).
	MetricClears = "mpr_core_clears_total"
	// MetricInteractiveRounds is the rounds-to-convergence histogram of
	// the MPR-INT loop.
	MetricInteractiveRounds = "mpr_core_interactive_rounds"
	// MetricInteractiveOutcomes counts finished interactive markets,
	// labeled "converged" or "budget_exhausted".
	MetricInteractiveOutcomes = "mpr_core_interactive_outcomes_total"
)

// coreMetrics holds the pre-resolved instrument handles the hot paths
// touch. Handles are nil (no-op) under the Nop registry, so the fast path
// cost is one atomic pointer load plus a nil check per site.
type coreMetrics struct {
	priceSearches *telemetry.Counter
	cappedShort   *telemetry.Counter
	clearsClosed  *telemetry.Counter
	clearsStream  *telemetry.Counter
	intRounds     *hdr.Histogram
	intConverged  *telemetry.Counter
	intExhausted  *telemetry.Counter
}

var activeMetrics atomic.Pointer[coreMetrics]

func init() { Instrument(telemetry.Default()) }

// Instrument points the package's market instrumentation at reg.
// Passing telemetry.Nop() (nil) disables it entirely; the default is the
// process-global telemetry.Default() registry. Safe to call concurrently
// with clears.
func Instrument(reg *telemetry.Registry) {
	m := &coreMetrics{}
	if reg != nil {
		clears := reg.CounterFamily(MetricClears, "Market clears by MClr solver mode.", "mode")
		m.priceSearches = reg.Counter(MetricPriceSearches, "Full MClr price solves (any mode).")
		m.cappedShort = reg.Counter(MetricCappedShortCircuits, "ClearCapped calls settled at the cap without a price search.")
		m.clearsClosed = clears.With("closed_form")
		m.clearsStream = clears.With("streaming")
		m.intRounds = reg.HDR(MetricInteractiveRounds, "MPR-INT rounds to convergence.")
		outcomes := reg.CounterFamily(MetricInteractiveOutcomes, "Finished interactive markets by outcome.", "outcome")
		m.intConverged = outcomes.With("converged")
		m.intExhausted = outcomes.With("budget_exhausted")
	}
	activeMetrics.Store(m)
}

// met returns the active instrument handles.
func met() *coreMetrics { return activeMetrics.Load() }
