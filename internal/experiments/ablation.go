package experiments

import (
	"fmt"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/sim"
	"mpr/internal/stats"
)

func init() {
	register("a1", "Ablation: MClr closed-form clear vs generic/dual NLP solvers", runAblationSolvers)
	register("a2", "Ablation: linear vs quadratic user cost", runAblationCostShape)
	register("a3", "Ablation: static bidding strategies", runAblationBidStrategies)
	register("a4", "Ablation: emergency hysteresis (buffer + cool-down)", runAblationHysteresis)
	register("a5", "Ablation: predictive market invocation vs reactive", runAblationPredictive)
	register("a6", "Ablation: supply-function market vs VCG auction", runAblationVCG)
}

// runAblationSolvers validates the paper's scalability design decision:
// clearing the market by MClr's scalar price, solved here in closed form
// (core.Clear), instead of a multi-variable NLP loses little cost while
// being orders of magnitude faster.
func runAblationSolvers(o Options) (*Result, error) {
	sizes := []int{100, 1000, 10000}
	if o.Quick {
		sizes = []int{100, 1000}
	}
	tbl := stats.NewTable("Ablation A1 — MClr closed-form clear vs centralized solvers",
		"jobs", "clear ms", "dual ms", "generic ms", "cost clear/OPT", "supplied/target")
	// Pool construction fans out across the worker pool; the timed
	// solver sections below stay serial so co-scheduled cells cannot
	// distort the wall-clock columns (DESIGN.md §9).
	pools, err := buildPools(o, sizes)
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		parts := pools[i].parts
		target := poolTarget(parts)

		t0 := time.Now()
		mres, err := core.Clear(parts, target)
		if err != nil {
			return nil, err
		}
		clearMS := time.Since(t0).Seconds() * 1000
		var marketCost float64
		for i, p := range parts {
			marketCost += p.Cost(mres.Reductions[i])
		}

		t0 = time.Now()
		dres, err := core.SolveOPT(parts, target, core.OPTDual)
		if err != nil {
			return nil, err
		}
		dualMS := time.Since(t0).Seconds() * 1000

		t0 = time.Now()
		if _, err := core.SolveOPT(parts, target, core.OPTGeneric); err != nil {
			return nil, err
		}
		genericMS := time.Since(t0).Seconds() * 1000

		ratio := 0.0
		if dres.TotalCost > 0 {
			ratio = marketCost / dres.TotalCost
		}
		tbl.AddRow(n, clearMS, dualMS, genericMS, ratio, mres.SuppliedW/target)
	}
	return &Result{ID: "a1", Title: "Ablation A1", Tables: []*stats.Table{tbl}}, nil
}

func runAblationCostShape(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Ablation A2 — user cost shape at 15% oversubscription",
		"cost shape", "algorithm", "cost (core-h)", "reward %")
	var cfgs []sim.Config
	for _, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
		for _, algo := range []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt} {
			cfgs = append(cfgs, sim.Config{
				Trace: tr, OversubPct: 15, Algorithm: algo,
				Seed: o.seed(), CostShape: shape,
			})
		}
	}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		r := results[i]
		tbl.AddRow(c.CostShape.String(), string(c.Algorithm), r.CostCoreH,
			fmt.Sprintf("%.0f%%", r.RewardPercent()))
	}
	return &Result{ID: "a2", Title: "Ablation A2", Tables: []*stats.Table{tbl}}, nil
}

func runAblationBidStrategies(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Ablation A3 — MPR-STAT bid strategy at 15% oversubscription",
		"strategy", "bid factor", "cost (core-h)", "reward %", "infeasible events")
	cases := []struct {
		name   string
		factor float64
	}{
		{"deficient", 0.4},
		{"cooperative", 1.0},
		{"conservative", 1.5},
		{"very conservative", 2.5},
	}
	cfgs := make([]sim.Config, len(cases))
	for i, tc := range cases {
		cfgs[i] = sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRStat,
			Seed: o.seed(), StatBidFactor: tc.factor,
		}
	}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	for i, tc := range cases {
		r := results[i]
		tbl.AddRow(tc.name, tc.factor, r.CostCoreH,
			fmt.Sprintf("%.0f%%", r.RewardPercent()), r.InfeasibleEvents)
	}
	return &Result{ID: "a3", Title: "Ablation A3",
		Tables: []*stats.Table{tbl},
		Notes:  []string{"deficient bids raise supply at low prices (cheap for the manager, risky for users); conservative bids push the clearing price up"}}, nil
}

func runAblationHysteresis(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Ablation A4 — emergency hysteresis at 15% oversubscription",
		"buffer", "cool-down (min)", "emergencies", "emergency minutes", "overload minutes")
	at := func(buffer float64, cooldown int) sim.Config {
		return sim.Config{Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRStat,
			Seed: o.seed(), BufferFrac: buffer, CooldownSlots: cooldown}
	}
	cfgs := []sim.Config{
		at(0.0001, 1),  // near-zero buffer, minimal cool-down: oscillation-prone
		at(0.0001, 10), // cool-down only
		at(0.01, 1),    // buffer only
		at(0.01, 10),   // the paper's setting
	}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		r := results[i]
		tbl.AddRow(fmt.Sprintf("%.2f%%", 100*c.BufferFrac), c.CooldownSlots,
			r.EmergencyCount, r.EmergencySlots, r.OverloadSlots)
	}
	return &Result{ID: "a4", Title: "Ablation A4", Tables: []*stats.Table{tbl},
		Notes: []string{"fewer, longer emergencies with the paper's 1% buffer + 10-minute cool-down; tiny buffers with no cool-down relapse repeatedly"}}, nil
}

// runAblationPredictive evaluates Section III-D's suggestion to invoke
// the market early from a power forecast. The market delay models
// MPR-INT's communication rounds: with a slow market, reactive handling
// leaves the system overloaded while prices converge; the predictive
// manager clears before the breach.
func runAblationPredictive(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Ablation A5 — predictive market invocation (MPR-INT at 15%)",
		"market delay (min)", "predictive", "overload minutes", "emergencies",
		"cost (core-h)", "mean queue wait (min)")
	at := func(delay int, predictive bool) sim.Config {
		return sim.Config{Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRInt, Seed: o.seed(),
			MarketDelaySlots: delay, Predictive: predictive, PredictHorizonSlots: delay + 3}
	}
	cfgs := []sim.Config{at(0, false), at(3, false), at(3, true), at(5, false), at(5, true)}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		r := results[i]
		tbl.AddRow(c.MarketDelaySlots, c.Predictive, r.OverloadSlots, r.EmergencyCount,
			r.CostCoreH, r.MeanQueueWaitMin)
	}
	return &Result{ID: "a5", Title: "Ablation A5", Tables: []*stats.Table{tbl},
		Notes: []string{"predictive mode gates admissions on power headroom and pre-clears from the forecast: overloads are prevented rather than reacted to, at the price of slightly longer queue waits"}}, nil
}

// runAblationVCG quantifies the Section VI trade-off between MPR's
// supply-function bidding and a VCG procurement auction: VCG is exactly
// efficient and truthful but needs full cost revelation and one
// counterfactual optimal solve per winner.
func runAblationVCG(o Options) (*Result, error) {
	sizes := []int{10, 100, 500}
	if !o.Quick {
		sizes = []int{10, 100, 1000, 3000}
	}
	tbl := stats.NewTable("Ablation A6 — MPR market vs VCG auction",
		"jobs", "market ms", "VCG ms", "market cost", "VCG cost",
		"market payout", "VCG payments", "pivotal winners")
	// Prebuild the pools in parallel; the timed sections stay serial.
	pools, err := buildPools(o, sizes)
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		parts := pools[pi].parts
		target := poolTarget(parts)

		t0 := time.Now()
		mres, err := core.Clear(parts, target)
		if err != nil {
			return nil, err
		}
		marketMS := time.Since(t0).Seconds() * 1000
		var marketCost float64
		for i, p := range parts {
			marketCost += p.Cost(mres.Reductions[i])
		}

		t0 = time.Now()
		vres, err := core.SolveVCG(parts, target)
		if err != nil {
			return nil, err
		}
		vcgMS := time.Since(t0).Seconds() * 1000
		pivotal := 0
		for _, p := range vres.Pivotal {
			if p {
				pivotal++
			}
		}
		tbl.AddRow(n, marketMS, vcgMS, marketCost, vres.TotalCost,
			mres.PayoutRate, vres.TotalPaymentVCG(), pivotal)
	}
	return &Result{ID: "a6", Title: "Ablation A6", Tables: []*stats.Table{tbl},
		Notes: []string{"VCG is exactly efficient but needs cost revelation and M+1 optimal solves; the market clears with one closed-form MClr solve over sealed bids"}}, nil
}
