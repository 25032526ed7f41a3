package experiments

import (
	"fmt"

	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/telemetry/tsdb"
)

// TimelineRun is the series-instrumented reference run behind the Fig. 9
// power timeline and the mprbench -series export: MPR-INT on the Gaia
// trace at 15% oversubscription with per-slot sampling enabled. The run
// is cached under its own key ("f9ts") so the instrumented result never
// collides with gaiaSweep's uninstrumented cells, and sampling uses
// virtual slot timestamps, so the recorded store is bit-identical at any
// worker count (DESIGN.md §9).
func TimelineRun(o Options) (*sim.Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("f9ts/%d/%d", o.seed(), o.gaiaDays())
	return cachedRun(sim.Config{
		Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRInt, Seed: o.seed(),
		// 1<<15 raw slots hold a quick (14-day) horizon losslessly; at the
		// full 92-day horizon the raw ring wraps but the 100× ring still
		// covers the whole run, which is all the timeline table reads.
		SampleSeries: true, SeriesCapacity: 1 << 15,
	}, key)
}

// timelineTable renders the recorded power series as the paper's Fig. 9
// power-timeline view: 100-slot downsampled windows of demand, delivered
// power, capacity, overload, and emergency duty cycle, stride-thinned to
// at most maxRows rows. All five series are sampled once per slot, so
// their bucket boundaries align and rows zip by index.
func timelineTable(st *tsdb.Store, maxRows int) *stats.Table {
	get := func(name string) []tsdb.Bucket {
		data := st.Query(tsdb.Query{
			Name: name, Resolution: tsdb.Res100, MaxPoints: maxRows,
		})
		if len(data) == 0 {
			return nil
		}
		return data[0].Points
	}
	demand := get(sim.SeriesPowerDemandW)
	delivered := get(sim.SeriesPowerDeliveredW)
	capacity := get(sim.SeriesPowerCapacityW)
	overload := get(sim.SeriesOverloadW)
	emergency := get(sim.SeriesEmergencyActive)

	tbl := stats.NewTable("Fig. 9(e) — power timeline from the recorded series (100-slot windows)",
		"slots", "demand avg (W)", "demand max (W)", "delivered max (W)",
		"capacity (W)", "overload max (W)", "emergency duty")
	for i := range demand {
		if i >= len(delivered) || i >= len(capacity) || i >= len(overload) || i >= len(emergency) {
			break
		}
		tbl.AddRow(
			fmt.Sprintf("[%d,%d]", demand[i].Start, demand[i].End),
			demand[i].Mean(), demand[i].Max, delivered[i].Max,
			capacity[i].Max, overload[i].Max,
			fmt.Sprintf("%.0f%%", 100*emergency[i].Mean()),
		)
	}
	return tbl
}
