// Command mprsim runs trace-driven simulations of an oversubscribed
// HPC system with chosen overload-handling algorithms and prints the
// evaluation summaries.
//
// Usage:
//
//	mprsim -trace gaia -days 30 -oversub 15 -algo MPR-INT
//	mprsim -swf mylog.swf -oversub 10 -algo OPT
//	mprsim -algo MPR-STAT,MPR-INT,EQL -parallel 3
//
// -algo accepts a comma-separated list; the runs are independent cells
// executed on a worker pool bounded by -parallel (0 = GOMAXPROCS,
// 1 = serial). The summaries print in the order the algorithms were
// given and are identical at any worker count — see DESIGN.md §9.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/telemetry/tsdb"
	"mpr/internal/trace"
)

func main() {
	var (
		preset   = flag.String("trace", "gaia", "workload preset: gaia, pik, ricc, metacentrum")
		swf      = flag.String("swf", "", "path to a Standard Workload Format log (overrides -trace)")
		days     = flag.Int("days", 30, "trace horizon in days (synthetic presets only)")
		oversub  = flag.Float64("oversub", 15, "oversubscription percent")
		algo     = flag.String("algo", "MPR-STAT", "comma-separated algorithms: OPT, EQL, MPR-STAT, MPR-INT, NONE")
		seed     = flag.Int64("seed", 1, "random seed")
		part     = flag.Float64("participation", 1, "market participation fraction")
		delay    = flag.Int("market-delay", 0, "slots between declaring an emergency and the reduction taking effect")
		predict  = flag.Bool("predict", false, "invoke the market early from a power forecast (Section III-D)")
		phases   = flag.Float64("phases", 0, "per-job power phase amplitude (0 disables)")
		series   = flag.Bool("series", false, "plot the power timeline as an ASCII chart")
		parallel = flag.Int("parallel", 0, "worker-pool bound for multi-algorithm runs: 0 = GOMAXPROCS, 1 = serial")
	)
	flag.Parse()

	tr, err := loadTrace(*preset, *swf, *days, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// -series samples every slot and keeps them all, so the chart spans
	// the whole run.
	seriesCap := 0
	if *series {
		seriesCap = sim.RunSlots(tr)
	}
	var algos []sim.Algorithm
	for _, a := range strings.Split(*algo, ",") {
		algos = append(algos, sim.Algorithm(strings.TrimSpace(a)))
	}
	workers := *parallel
	if workers <= 0 {
		workers = runner.DefaultWorkers()
	}
	// Each algorithm is an independent cell over the shared (read-only)
	// trace; results land in submission order, so the printout below is
	// identical no matter how the cells were scheduled.
	results, err := runner.Map(workers, algos, func(_ int, a sim.Algorithm) (*sim.Result, error) {
		return sim.Run(sim.Config{
			Trace:            tr,
			OversubPct:       *oversub,
			Algorithm:        a,
			Seed:             *seed,
			Participation:    *part,
			MarketDelaySlots: *delay,
			Predictive:       *predict,
			PhaseAmp:         *phases,
			SampleSeries:     *series,
			SeriesCapacity:   seriesCap,
		})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		printSummary(res)
		if *series {
			fmt.Println(stats.LineChart(
				fmt.Sprintf("delivered power (W), capacity %.0f W (dashed)", res.CapacityW),
				deliveredPower(res), 100, 14, res.CapacityW))
		}
	}
}

// deliveredPower reads the run's sampled delivered-power series, one
// point per slot; LineChart averages them down to its width.
func deliveredPower(r *sim.Result) *stats.Series {
	out := &stats.Series{}
	for _, sd := range r.Series.Query(tsdb.Query{Name: sim.SeriesPowerDeliveredW}) {
		for _, p := range sd.Points {
			out.Append(p.T, p.V)
		}
	}
	return out
}

func loadTrace(preset, swf string, days int, seed int64) (*trace.Trace, error) {
	if swf != "" {
		f, err := os.Open(swf)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ParseSWF(f, swf)
	}
	presets := trace.Presets(seed)
	cfg, ok := presets[preset]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q (have gaia, pik, ricc, metacentrum)", preset)
	}
	return trace.Generate(cfg.WithDays(days))
}

func printSummary(r *sim.Result) {
	tbl := stats.NewTable(fmt.Sprintf("Simulation summary — %s on %s at %.0f%% oversubscription",
		r.Algorithm, r.TraceName, r.OversubPct), "metric", "value")
	tbl.AddRow("capacity (kW)", r.CapacityW/1000)
	tbl.AddRow("peak demand (kW)", r.PeakW/1000)
	tbl.AddRow("simulated slots (min)", r.Slots)
	tbl.AddRow("overload time", fmt.Sprintf("%.2f%%", 100*r.OverloadFraction()))
	tbl.AddRow("emergencies", r.EmergencyCount)
	tbl.AddRow("emergency minutes", r.EmergencySlots)
	tbl.AddRow("jobs total/completed", fmt.Sprintf("%d / %d", r.JobsTotal, r.JobsCompleted))
	tbl.AddRow("jobs affected", fmt.Sprintf("%.1f%%", 100*r.AffectedFraction()))
	tbl.AddRow("resource reduction (core-h)", r.ReductionCoreH)
	tbl.AddRow("cost of performance loss (core-h)", r.CostCoreH)
	tbl.AddRow("incentive payoff (core-h)", r.PaymentCoreH)
	tbl.AddRow("user reward (% of cost)", fmt.Sprintf("%.0f%%", r.RewardPercent()))
	tbl.AddRow("extra capacity (core-h)", r.ExtraCapacityCoreH)
	tbl.AddRow("manager gain ratio", fmt.Sprintf("%.0fx", r.GainRatio()))
	tbl.AddRow("avg runtime increase (affected)", fmt.Sprintf("%.3f%%", 100*r.MeanRuntimeIncrease))
	tbl.AddRow("market invocations", r.MarketInvocations)
	tbl.AddRow("mean market rounds", r.MeanRounds)
	tbl.AddRow("infeasible events", r.InfeasibleEvents)
	fmt.Println(tbl.String())

	if len(r.PerProfile) > 0 {
		pp := stats.NewTable("Per-application outcome", "app", "jobs", "reduction (core-h)", "cost (core-h)")
		var names []string
		for n := range r.PerProfile {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ps := r.PerProfile[n]
			pp.AddRow(n, ps.Jobs, ps.ReductionCoreH, ps.CostCoreH)
		}
		fmt.Println(pp.String())
	}
}
