package experiments

import (
	"fmt"

	"mpr/internal/cluster"
	"mpr/internal/stats"
)

func init() {
	register("f16", "Fig. 16: prototype power and runtime vs CPU speed", runFig16)
	register("f17", "Fig. 17: prototype overload handling with MPR", runFig17)
}

func runFig16(o Options) (*Result, error) {
	pts, err := cluster.FreqSweep(cluster.DefaultApps(), 8)
	if err != nil {
		return nil, err
	}
	powerTbl := stats.NewTable("Fig. 16(a) — dynamic power vs CPU speed (W, 10 cores)",
		"app", "freq (GHz)", "dynamic power (W)")
	runtimeTbl := stats.NewTable("Fig. 16(b) — normalized execution time vs CPU speed",
		"app", "freq (GHz)", "normalized runtime")
	for _, p := range pts {
		powerTbl.AddRow(p.App, p.FreqGHz, p.DynPowerW)
		runtimeTbl.AddRow(p.App, p.FreqGHz, p.NormRuntime)
	}
	return &Result{ID: "f16", Title: "Fig. 16", Tables: []*stats.Table{powerTbl, runtimeTbl}}, nil
}

func runFig17(o Options) (*Result, error) {
	seconds := 1800 // two 30-minute experiments, as in the paper
	if o.Quick {
		seconds = 600
	}
	run := func(useMPR bool) (*cluster.RunResult, error) {
		c, err := cluster.New(cluster.Config{Seed: o.seed(), UseMPR: useMPR})
		if err != nil {
			return nil, err
		}
		c.RunFor(seconds)
		return c.Result(), nil
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	with, err := run(true)
	if err != nil {
		return nil, err
	}

	powerTbl := stats.NewTable("Fig. 17(a) — prototype power (W, bucket means, 400 W cap)",
		"second", "without MPR", "with MPR")
	w1 := without.PowerSeries.Downsample(20)
	w2 := with.PowerSeries.Downsample(20)
	for i := range w1.T {
		powerTbl.AddRow(w1.T[i], w1.V[i], w2.V[i])
	}

	appTbl := stats.NewTable("Fig. 17(b) — per-application outcome with MPR",
		"app", "mean core allocation", "reduction (core-seconds)", "payment (core-seconds)")
	for _, a := range with.Apps {
		appTbl.AddRow(a.Name, a.MeanAlloc, a.ReductionCoreSeconds, a.PaymentCoreSeconds)
	}

	summary := stats.NewTable("Fig. 17 — summary",
		"run", "emergencies", "overload seconds")
	summary.AddRow("without MPR", without.Emergencies, without.OverloadSeconds)
	summary.AddRow("with MPR", with.Emergencies, with.OverloadSeconds)

	return &Result{ID: "f17", Title: "Fig. 17",
		Tables: []*stats.Table{powerTbl, appTbl, summary},
		Notes:  []string{fmt.Sprintf("emulated prototype: 40 cores, %d virtual seconds per arm", seconds)},
	}, nil
}
