package experiments

import (
	"fmt"

	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/telemetry/tsdb"
)

// TimelineRun is the series-instrumented reference run behind the Fig. 9
// power timeline and the mprbench -series export: MPR-INT on the Gaia
// trace at 15% oversubscription with per-slot sampling enabled. Sampling
// uses virtual slot timestamps, so the recorded store is bit-identical at
// any worker count (DESIGN.md §9).
func TimelineRun(o Options) (*sim.Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	return cachedRun(sim.Config{
		Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRInt, Seed: o.seed(),
		// Every series keeps the whole run: the timeline folds all of it.
		SampleSeries: true, SeriesCapacity: sim.RunSlots(tr),
	})
}

// timelineWindow folds consecutive samples of one series into the
// timeline's min/max/sum/count view.
type timelineWindow struct {
	start, end int64
	min, max   float64
	sum        float64
	count      int
}

func (w timelineWindow) mean() float64 { return w.sum / float64(w.count) }

// foldWindows folds pts into consecutive 100-sample windows from the
// first sample, the last one partial. A window sums its tens first and
// then the tens, and a trailing ten the run did not complete is left out
// (at most nine drain slots), so the figure's rows keep their bits.
func foldWindows(pts []tsdb.Point) []timelineWindow {
	pts = pts[:len(pts)-len(pts)%10]
	var out []timelineWindow
	for i := 0; i < len(pts); i += 100 {
		w := timelineWindow{start: pts[i].T, min: pts[i].V, max: pts[i].V}
		for j := i; j < min(i+100, len(pts)); j += 10 {
			var ten float64
			for _, p := range pts[j : j+10] {
				ten += p.V
				if p.V < w.min {
					w.min = p.V
				}
				if p.V > w.max {
					w.max = p.V
				}
				w.end = p.T
				w.count++
			}
			w.sum += ten
		}
		out = append(out, w)
	}
	return out
}

// timelineTable renders the recorded power series as the paper's Fig. 9
// power-timeline view: 100-slot windows of demand, delivered power,
// capacity, overload, and emergency duty cycle. Every k-th window prints,
// k the least stride that fits maxRows, and the newest window always
// does (in place of the last pick when the table is full). All five
// series are sampled once per slot, so their windows align and rows zip
// by index.
func timelineTable(st *tsdb.Store, maxRows int) *stats.Table {
	get := func(name string) []timelineWindow {
		data := st.Query(tsdb.Query{Name: name})
		if len(data) == 0 {
			return nil
		}
		return foldWindows(data[0].Points)
	}
	demand := get(sim.SeriesPowerDemandW)
	delivered := get(sim.SeriesPowerDeliveredW)
	capacity := get(sim.SeriesPowerCapacityW)
	overload := get(sim.SeriesOverloadW)
	emergency := get(sim.SeriesEmergencyActive)

	tbl := stats.NewTable("Fig. 9(e) — power timeline from the recorded series (100-slot windows)",
		"slots", "demand avg (W)", "demand max (W)", "delivered max (W)",
		"capacity (W)", "overload max (W)", "emergency duty")
	n := min(len(demand), len(delivered), len(capacity), len(overload), len(emergency))
	var rows []int
	for i := 0; i < n; i += (n + maxRows - 1) / maxRows {
		rows = append(rows, i)
	}
	if k := len(rows); k > 0 && rows[k-1] != n-1 {
		if k == maxRows {
			rows[k-1] = n - 1
		} else {
			rows = append(rows, n-1)
		}
	}
	for _, i := range rows {
		tbl.AddRow(
			fmt.Sprintf("[%d,%d]", demand[i].start, demand[i].end),
			demand[i].mean(), demand[i].max, delivered[i].max,
			capacity[i].max, overload[i].max,
			fmt.Sprintf("%.0f%%", 100*emergency[i].mean()),
		)
	}
	return tbl
}
