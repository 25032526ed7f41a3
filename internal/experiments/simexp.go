package experiments

import (
	"fmt"
	"slices"
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
	var at15 []*sim.Result
	for _, algo := range sim.Algorithms() {
		at15 = append(at15, sweep[15][algo])
	}
	red15, cost15 := profileTables(at15,
		"Fig. 9(c) — profile-wise resource reduction at 15% (core-hours)",
		"Fig. 9(d) — profile-wise cost at 15% (core-hours)")

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
	var cfgs []sim.Config
	for _, p := range participations {
		for _, algo := range []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt} {
			cfgs = append(cfgs, sim.Config{
				Trace: tr, OversubPct: 15, Algorithm: algo,
				Seed: o.seed(), Participation: p,
			})
		}
	}
	results, err := runAll(o, cfgs)
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
	var cfgs []sim.Config
	add := func(randErr, under float64) {
		for _, algo := range []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt} {
			cfgs = append(cfgs, sim.Config{
				Trace: tr, OversubPct: 15, Algorithm: algo, Seed: o.seed(),
				CostErrorRand: randErr, CostErrorUnder: under,
			})
		}
	}
	for _, e := range randErrs {
		add(e, 0)
	}
	for _, u := range unders {
		add(0, u)
	}
	results, err := runAll(o, cfgs)
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
	traces, err := runner.Map(o.workers(), names, func(_ int, name string) (*trace.Trace, error) {
		return cachedTrace(presets[name].WithDays(o.otherTraceDays()))
	})
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, tr := range traces {
		for _, x := range paperOversubs {
			for _, algo := range algos {
				cfgs = append(cfgs, sim.Config{Trace: tr, OversubPct: x, Algorithm: algo, Seed: o.seed()})
			}
		}
	}
	results, err := runAll(o, cfgs)
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
	var cfgs []sim.Config
	for _, x := range paperOversubs {
		for _, algo := range sim.Algorithms() {
			cfgs = append(cfgs, sim.Config{
				Trace: tr, OversubPct: x, Algorithm: algo, Seed: o.seed(),
				Profiles: profiles, CoreModel: power.DefaultGPUCoreModel, AppPower: appPower,
			})
		}
	}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	// results[i*n+a] is oversubscription paperOversubs[i] under algorithm a.
	n := len(sim.Algorithms())
	eql := slices.Index(sim.Algorithms(), sim.AlgEQL)

	cost := stats.NewTable("Fig. 15(b) — GPU system cost of performance loss (core-hours)",
		"oversub", "OPT", "EQL", "MPR-STAT", "MPR-INT", "EQL infeasible events")
	for i, x := range paperOversubs {
		row := []interface{}{fmt.Sprintf("%.0f%%", x)}
		for _, r := range results[i*n : (i+1)*n] {
			row = append(row, r.CostCoreH)
		}
		cost.AddRow(append(row, results[i*n+eql].InfeasibleEvents)...)
	}
	i15 := slices.Index(paperOversubs, 15)
	red, closs := profileTables(results[i15*n:(i15+1)*n],
		"Fig. 15(c) — GPU profile-wise reduction at 15% (core-hours)",
		"Fig. 15(d) — GPU profile-wise cost at 15% (core-hours)")
	return &Result{ID: "f15", Title: "Fig. 15", Tables: []*stats.Table{cost, red, closs},
		Notes: []string{"GPU 'one core' normalized to each application's max power (Section V-E)"}}, nil
}

// profileTables renders the per-profile resource reduction and cost of
// one oversubscription level, one column per algorithm's result.
func profileTables(results []*sim.Result, redTitle, costTitle string) (red, cost *stats.Table) {
	red = stats.NewTable(redTitle, "app", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	cost = stats.NewTable(costTitle, "app", "OPT", "EQL", "MPR-STAT", "MPR-INT")
	var names []string
	for name := range results[0].PerProfile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rowR := []interface{}{name}
		rowC := []interface{}{name}
		for _, r := range results {
			ps := r.PerProfile[name]
			rowR = append(rowR, ps.ReductionCoreH)
			rowC = append(rowC, ps.CostCoreH)
		}
		red.AddRow(rowR...)
		cost.AddRow(rowC...)
	}
	return red, cost
}
