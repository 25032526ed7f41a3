package sim

import (
	"mpr/internal/telemetry/tsdb"
	"mpr/internal/trace"
)

// drainSlots is the ten days past the trace the engine's horizon allows
// for the last jobs to finish.
const drainSlots = 10 * 24 * 60

// horizon is the last slot a run over tr may step: the last job start,
// plus the trace's work spread over all its cores, plus drainSlots.
func horizon(tr *trace.Trace) int {
	lastStart := 0
	var totalMin float64
	for _, j := range tr.Jobs {
		lastStart = max(lastStart, int(j.Start()/60))
		totalMin += float64(j.Runtime) / 60
	}
	return lastStart + int(totalMin/float64(tr.TotalCores)) + drainSlots
}

// RunSlots is the number of slots a run over tr may step, slot 0 through
// its horizon: the SeriesCapacity under which the series of that run keep
// every sample. Whole-run readers (the Fig. 9 timeline, mprsim -series)
// size their store with it.
func RunSlots(tr *trace.Trace) int { return horizon(tr) + 1 }

// Series names the engine samples into Result.Series each simulated slot
// when Config.SampleSeries is set. Timestamps are virtual (the slot
// number), so exported series are bit-identical across worker counts and
// wall-clock conditions — the determinism contract of DESIGN.md §9. Each
// run has its own store, so a series needs no algorithm label:
// Result.Algorithm names it.
const (
	SeriesPowerDemandW    = "mpr_sim_power_demand_w"
	SeriesPowerDeliveredW = "mpr_sim_power_delivered_w"
	SeriesPowerCapacityW  = "mpr_sim_power_capacity_w"
	SeriesOverloadW       = "mpr_sim_overload_w"
	SeriesReductionUnmet  = "mpr_sim_reduction_unmet_w"
	SeriesEmergencyActive = "mpr_sim_emergency_active"
	SeriesMarketRounds    = "mpr_sim_market_rounds"
)

// seriesSampler holds the engine's resolved series handles. Handles are
// resolved once at run start; the per-slot sample call is then pure ring
// appends — zero allocations in steady state. Built over a nil store
// every handle is the Nop series, so the uninstrumented hot loop pays
// only nil checks.
type seriesSampler struct {
	store *tsdb.Store

	demandW    *tsdb.Series
	deliveredW *tsdb.Series
	capacityW  *tsdb.Series
	overloadW  *tsdb.Series
	unmetW     *tsdb.Series
	emergency  *tsdb.Series
	rounds     *tsdb.Series
}

func newSeriesSampler(store *tsdb.Store) seriesSampler {
	return seriesSampler{
		store:      store,
		demandW:    store.Series(SeriesPowerDemandW),
		deliveredW: store.Series(SeriesPowerDeliveredW),
		capacityW:  store.Series(SeriesPowerCapacityW),
		overloadW:  store.Series(SeriesOverloadW),
		unmetW:     store.Series(SeriesReductionUnmet),
		emergency:  store.Series(SeriesEmergencyActive),
		rounds:     store.Series(SeriesMarketRounds),
	}
}

// enabled reports whether sampling is on, so the engine calls sample
// only on a sampled run.
func (s *seriesSampler) enabled() bool { return s.store != nil }

// sample records one slot's cluster state. unmet is how far the
// reduction in force (demand minus delivered) falls short of the
// emergency target while one is active.
func (s *seriesSampler) sample(slot int, demandW, deliveredW, capW float64, emergency bool, targetW float64) {
	t := int64(slot)
	s.demandW.Append(t, demandW)
	s.deliveredW.Append(t, deliveredW)
	s.capacityW.Append(t, capW)
	overload := deliveredW - capW
	if overload < 0 {
		overload = 0
	}
	s.overloadW.Append(t, overload)
	em := 0.0
	var unmet float64
	if emergency {
		em = 1
		cleared := demandW - deliveredW
		if cleared < 0 {
			cleared = 0
		}
		if unmet = targetW - cleared; unmet < 0 {
			unmet = 0
		}
	}
	s.unmetW.Append(t, unmet)
	s.emergency.Append(t, em)
}

// sampleClear records a market invocation's round count at its slot.
func (s *seriesSampler) sampleClear(slot, rounds int) {
	s.rounds.Append(int64(slot), float64(rounds))
}
