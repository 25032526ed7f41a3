package experiments

import (
	"fmt"
	"sort"

	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/trace"
)

func init() {
	register("f8", "Fig. 8: impact of oversubscription on Gaia", runFig8)
	register("f9", "Fig. 9: benchmark comparison on Gaia", runFig9)
	register("f11", "Fig. 11: user rewards and HPC gain", runFig11)
	register("f12", "Fig. 12: impact of user participation", runFig12)
	register("f13", "Fig. 13: impact of cost-model errors", runFig13)
	register("f14", "Fig. 14: other workload traces (PIK, RICC, Metacentrum)", runFig14)
	register("f15", "Fig. 15: heterogeneous GPU system", runFig15)
}

var paperOversubs = []float64{5, 10, 15, 20}

func runFig8(o Options) (*Result, error) {
	sweep, err := gaiaSweep(o, paperOversubs, sim.Algorithms())
	if err != nil {
		return nil, err
	}
	over := stats.NewTable("Fig. 8(a) — overload percentage of time", "oversub",
		"OPT", "EQL", "MPR-STAT", "MPR-INT")
	hours := stats.NewTable("Fig. 8(b) — overload hours", "oversub",
		"OPT", "EQL", "MPR-STAT", "MPR-INT")
	affected := stats.NewTable("Fig. 8(c) — % of jobs affected", "oversub",
		"OPT", "EQL", "MPR-STAT", "MPR-INT")
	reduction := stats.NewTable("Fig. 8(d) — resource reduction (core-hours)", "oversub",
		"OPT", "EQL", "MPR-STAT", "MPR-INT")
	for _, x := range paperOversubs {
		rowO := []interface{}{fmt.Sprintf("%.0f%%", x)}
		rowH := []interface{}{fmt.Sprintf("%.0f%%", x)}
		rowA := []interface{}{fmt.Sprintf("%.0f%%", x)}
		rowR := []interface{}{fmt.Sprintf("%.0f%%", x)}
		for _, algo := range sim.Algorithms() {
			r := sweep[x][algo]
			rowO = append(rowO, fmt.Sprintf("%.2f%%", 100*r.OverloadFraction()))
			rowH = append(rowH, float64(r.OverloadSlots)/60)
			rowA = append(rowA, fmt.Sprintf("%.1f%%", 100*r.AffectedFraction()))
			rowR = append(rowR, r.ReductionCoreH)
		}
		over.AddRow(rowO...)
		hours.AddRow(rowH...)
		affected.AddRow(rowA...)
		reduction.AddRow(rowR...)
	}
	return &Result{ID: "f8", Title: "Fig. 8",
		Tables: []*stats.Table{over, hours, affected, reduction}}, nil
}

func runFig9(o Options) (*Result, error) {
	sweep, err := gaiaSweep(o, paperOversubs, sim.Algorithms())
	if err != nil {
		return nil, err
	}
	cost := stats.NewTable("Fig. 9(a) — total cost of performance loss (core-hours)",
		"oversub", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	runtime := stats.NewTable("Fig. 9(b) — avg runtime increase of affected jobs",
		"oversub", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	for _, x := range paperOversubs {
		rowC := []interface{}{fmt.Sprintf("%.0f%%", x)}
		rowR := []interface{}{fmt.Sprintf("%.0f%%", x)}
		for _, algo := range sim.Algorithms() {
			r := sweep[x][algo]
			rowC = append(rowC, r.CostCoreH)
			rowR = append(rowR, fmt.Sprintf("%.3f%%", 100*r.MeanRuntimeIncrease))
		}
		cost.AddRow(rowC...)
		runtime.AddRow(rowR...)
	}

	// Per-profile breakdown at 15% oversubscription (Figs. 9(c), 9(d)).
	red15 := stats.NewTable("Fig. 9(c) — profile-wise resource reduction at 15% (core-hours)",
		"app", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	cost15 := stats.NewTable("Fig. 9(d) — profile-wise cost at 15% (core-hours)",
		"app", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	var names []string
	for name := range sweep[15][sim.AlgOPT].PerProfile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rowR := []interface{}{name}
		rowC := []interface{}{name}
		for _, algo := range sim.Algorithms() {
			ps := sweep[15][algo].PerProfile[name]
			rowR = append(rowR, ps.ReductionCoreH)
			rowC = append(rowC, ps.CostCoreH)
		}
		red15.AddRow(rowR...)
		cost15.AddRow(rowC...)
	}

	// Power timeline regenerated from the recorded series store of the
	// instrumented MPR-INT run at 15% (Fig. 9(e)).
	tl, err := TimelineRun(o)
	if err != nil {
		return nil, err
	}
	timeline := timelineTable(tl.Series, 24)
	return &Result{ID: "f9", Title: "Fig. 9",
		Tables: []*stats.Table{cost, runtime, red15, cost15, timeline},
		Notes: []string{
			"the power timeline is read back from the per-slot series the instrumented MPR-INT run records (100-slot downsampled windows; see DESIGN.md §7)",
		}}, nil
}

func runFig11(o Options) (*Result, error) {
	algos := []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt}
	sweep, err := gaiaSweep(o, paperOversubs, algos)
	if err != nil {
		return nil, err
	}
	reward := stats.NewTable("Fig. 11(a) — user reward as % of performance cost",
		"oversub", "MPR-STAT", "MPR-INT")
	gain := stats.NewTable("Fig. 11(b) — HPC gain vs incentive payoff (core-hours)",
		"oversub", "extra capacity", "payoff STAT", "payoff INT", "gain ratio STAT", "gain ratio INT")
	for _, x := range paperOversubs {
		st, in := sweep[x][sim.AlgMPRStat], sweep[x][sim.AlgMPRInt]
		reward.AddRow(fmt.Sprintf("%.0f%%", x),
			fmt.Sprintf("%.0f%%", st.RewardPercent()),
			fmt.Sprintf("%.0f%%", in.RewardPercent()))
		gain.AddRow(fmt.Sprintf("%.0f%%", x), st.ExtraCapacityCoreH,
			st.PaymentCoreH, in.PaymentCoreH,
			fmt.Sprintf("%.0fx", st.GainRatio()), fmt.Sprintf("%.0fx", in.GainRatio()))
	}
	return &Result{ID: "f11", Title: "Fig. 11", Tables: []*stats.Table{reward, gain}}, nil
}

func runFig12(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	participations := []float64{1.0, 0.9, 0.75, 0.5}
	algos := []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt}
	type cell struct {
		p    float64
		algo sim.Algorithm
	}
	var cells []cell
	for _, p := range participations {
		for _, algo := range algos {
			cells = append(cells, cell{p, algo})
		}
	}
	results, err := runner.Map(o.workers(), cells, func(_ int, c cell) (*sim.Result, error) {
		key := fmt.Sprintf("f12/%d/%d/%s/%.2f", o.seed(), o.gaiaDays(), c.algo, c.p)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: c.algo,
			Seed: o.seed(), Participation: c.p,
		}, key)
	})
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Fig. 12 — user participation at 15% oversubscription",
		"participation", "cost STAT", "cost INT", "payoff STAT", "payoff INT")
	for i, p := range participations {
		st, in := results[2*i], results[2*i+1]
		tbl.AddRow(fmt.Sprintf("%.0f%%", 100*p),
			st.CostCoreH, in.CostCoreH, st.PaymentCoreH, in.PaymentCoreH)
	}
	return &Result{ID: "f12", Title: "Fig. 12", Tables: []*stats.Table{tbl}}, nil
}

func runFig13(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	randTbl := stats.NewTable("Fig. 13(a) — random cost-estimation error at 15%",
		"error", "cost STAT", "cost INT", "reward% STAT", "reward% INT")
	underTbl := stats.NewTable("Fig. 13(b) — systematic cost underestimation at 15%",
		"underestimation", "cost STAT", "cost INT", "reward% STAT", "reward% INT")
	randErrs := []float64{0, 0.10, 0.20, 0.30}
	unders := []float64{0.10, 0.20, 0.30}
	type cell struct {
		randErr, under float64
		algo           sim.Algorithm
	}
	var cells []cell
	for _, e := range randErrs {
		cells = append(cells, cell{e, 0, sim.AlgMPRStat}, cell{e, 0, sim.AlgMPRInt})
	}
	for _, u := range unders {
		cells = append(cells, cell{0, u, sim.AlgMPRStat}, cell{0, u, sim.AlgMPRInt})
	}
	results, err := runner.Map(o.workers(), cells, func(_ int, c cell) (*sim.Result, error) {
		key := fmt.Sprintf("f13/%d/%d/%s/%.2f/%.2f", o.seed(), o.gaiaDays(), c.algo, c.randErr, c.under)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: c.algo, Seed: o.seed(),
			CostErrorRand: c.randErr, CostErrorUnder: c.under,
		}, key)
	})
	if err != nil {
		return nil, err
	}
	for i, e := range randErrs {
		st, in := results[2*i], results[2*i+1]
		randTbl.AddRow(fmt.Sprintf("%.0f%%", 100*e), st.CostCoreH, in.CostCoreH,
			fmt.Sprintf("%.0f%%", st.RewardPercent()), fmt.Sprintf("%.0f%%", in.RewardPercent()))
	}
	base := 2 * len(randErrs)
	for i, u := range unders {
		st, in := results[base+2*i], results[base+2*i+1]
		underTbl.AddRow(fmt.Sprintf("%.0f%%", 100*u), st.CostCoreH, in.CostCoreH,
			fmt.Sprintf("%.0f%%", st.RewardPercent()), fmt.Sprintf("%.0f%%", in.RewardPercent()))
	}
	return &Result{ID: "f13", Title: "Fig. 13", Tables: []*stats.Table{randTbl, underTbl}}, nil
}

func runFig14(o Options) (*Result, error) {
	presets := trace.Presets(o.seed())
	names := []string{"pik", "ricc", "metacentrum"}
	algos := sim.Algorithms()
	type cell struct {
		name string
		x    float64
		algo sim.Algorithm
	}
	var cells []cell
	for _, name := range names {
		for _, x := range paperOversubs {
			for _, algo := range algos {
				cells = append(cells, cell{name, x, algo})
			}
		}
	}
	// Each cell fetches its workload through the singleflight trace
	// cache, so the three traces are generated exactly once each even
	// though 16 concurrent cells ask for every one of them.
	results, err := runner.Map(o.workers(), cells, func(_ int, c cell) (*sim.Result, error) {
		cfg := presets[c.name].WithDays(o.otherTraceDays())
		tr, err := cachedTrace(cfg)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("f14/%s/%d/%d/%.1f/%s", c.name, o.seed(), cfg.Days, c.x, c.algo)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: c.x, Algorithm: c.algo, Seed: o.seed(),
		}, key)
	})
	if err != nil {
		return nil, err
	}
	var tables []*stats.Table
	i := 0
	for _, name := range names {
		tbl := stats.NewTable(fmt.Sprintf("Fig. 14 — cost of performance loss on %s (core-hours)", name),
			"oversub", "OPT", "EQL", "MPR-STAT", "MPR-INT")
		for _, x := range paperOversubs {
			row := []interface{}{fmt.Sprintf("%.0f%%", x)}
			for range algos {
				row = append(row, results[i].CostCoreH)
				i++
			}
			tbl.AddRow(row...)
		}
		tables = append(tables, tbl)
	}
	return &Result{ID: "f14", Title: "Fig. 14", Tables: tables}, nil
}

func runFig15(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	profiles := perf.GPUProfiles()
	appPower := map[string]power.CoreModel{}
	for _, p := range profiles {
		appPower[p.Name] = power.DefaultGPUCoreModel
	}
	run := func(x float64, algo sim.Algorithm) (*sim.Result, error) {
		key := fmt.Sprintf("f15/%d/%d/%.1f/%s", o.seed(), o.gaiaDays(), x, algo)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: x, Algorithm: algo, Seed: o.seed(),
			Profiles: profiles, CoreModel: power.DefaultGPUCoreModel, AppPower: appPower,
		}, key)
	}

	// Fill the whole (oversub × algorithm) matrix in parallel first; the
	// table assembly below then reads pure cache hits in its own order.
	var cells []simCell
	for _, x := range paperOversubs {
		for _, algo := range sim.Algorithms() {
			cells = append(cells, simCell{x, algo})
		}
	}
	if _, err := runner.Map(o.workers(), cells, func(_ int, c simCell) (*sim.Result, error) {
		return run(c.x, c.algo)
	}); err != nil {
		return nil, err
	}

	cost := stats.NewTable("Fig. 15(b) — GPU system cost of performance loss (core-hours)",
		"oversub", "OPT", "EQL", "MPR-STAT", "MPR-INT", "EQL infeasible events")
	for _, x := range paperOversubs {
		row := []interface{}{fmt.Sprintf("%.0f%%", x)}
		var eqlInfeasible int
		for _, algo := range sim.Algorithms() {
			r, err := run(x, algo)
			if err != nil {
				return nil, err
			}
			row = append(row, r.CostCoreH)
			if algo == sim.AlgEQL {
				eqlInfeasible = r.InfeasibleEvents
			}
		}
		row = append(row, eqlInfeasible)
		cost.AddRow(row...)
	}

	red := stats.NewTable("Fig. 15(c) — GPU profile-wise reduction at 15% (core-hours)",
		"app", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	closs := stats.NewTable("Fig. 15(d) — GPU profile-wise cost at 15% (core-hours)",
		"app", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	first, err := run(15, sim.AlgOPT)
	if err != nil {
		return nil, err
	}
	var names []string
	for name := range first.PerProfile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rowR := []interface{}{name}
		rowC := []interface{}{name}
		for _, algo := range sim.Algorithms() {
			r, err := run(15, algo)
			if err != nil {
				return nil, err
			}
			ps := r.PerProfile[name]
			rowR = append(rowR, ps.ReductionCoreH)
			rowC = append(rowC, ps.CostCoreH)
		}
		red.AddRow(rowR...)
		closs.AddRow(rowC...)
	}
	return &Result{ID: "f15", Title: "Fig. 15", Tables: []*stats.Table{cost, red, closs},
		Notes: []string{"GPU 'one core' normalized to each application's max power (Section V-E)"}}, nil
}
