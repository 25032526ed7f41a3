package experiments

import (
	"fmt"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/stats"
)

func init() {
	register("a1", "Ablation: MClr bisection vs generic/dual NLP solvers", runAblationSolvers)
	register("a2", "Ablation: linear vs quadratic user cost", runAblationCostShape)
	register("a3", "Ablation: static bidding strategies", runAblationBidStrategies)
	register("a4", "Ablation: emergency hysteresis (buffer + cool-down)", runAblationHysteresis)
	register("a5", "Ablation: predictive market invocation vs reactive", runAblationPredictive)
	register("a6", "Ablation: supply-function market vs VCG auction", runAblationVCG)
}

// runAblationSolvers validates the paper's scalability design decision:
// clearing the market through the scalar bisection of MClr instead of a
// multi-variable NLP loses little cost while being orders of magnitude
// faster.
func runAblationSolvers(o Options) (*Result, error) {
	sizes := []int{100, 1000, 10000}
	if o.Quick {
		sizes = []int{100, 1000}
	}
	tbl := stats.NewTable("Ablation A1 — MClr bisection vs centralized solvers",
		"jobs", "bisect ms", "dual ms", "generic ms", "cost bisect/OPT", "supplied/target")
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
		bisectMS := time.Since(t0).Seconds() * 1000
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
		tbl.AddRow(n, bisectMS, dualMS, genericMS, ratio, mres.SuppliedW/target)
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
	type cell struct {
		shape perf.CostShape
		algo  sim.Algorithm
	}
	var cells []cell
	for _, shape := range []perf.CostShape{perf.CostLinear, perf.CostQuadratic} {
		for _, algo := range []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt} {
			cells = append(cells, cell{shape, algo})
		}
	}
	results, err := runner.Map(o.workers(), cells, func(_ int, c cell) (*sim.Result, error) {
		key := fmt.Sprintf("a2/%d/%d/%s/%s", o.seed(), o.gaiaDays(), c.algo, c.shape)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: c.algo,
			Seed: o.seed(), CostShape: c.shape,
		}, key)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		r := results[i]
		tbl.AddRow(c.shape.String(), string(c.algo), r.CostCoreH,
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
	results, err := runner.MapN(o.workers(), len(cases), func(i int) (*sim.Result, error) {
		key := fmt.Sprintf("a3/%d/%d/%.2f", o.seed(), o.gaiaDays(), cases[i].factor)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRStat,
			Seed: o.seed(), StatBidFactor: cases[i].factor,
		}, key)
	})
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
	cases := []struct {
		buffer   float64
		cooldown int
	}{
		{0.0001, 1},  // near-zero buffer, minimal cool-down: oscillation-prone
		{0.0001, 10}, // cool-down only
		{0.01, 1},    // buffer only
		{0.01, 10},   // the paper's setting
	}
	results, err := runner.MapN(o.workers(), len(cases), func(i int) (*sim.Result, error) {
		tc := cases[i]
		key := fmt.Sprintf("a4/%d/%d/%.4f/%d", o.seed(), o.gaiaDays(), tc.buffer, tc.cooldown)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRStat,
			Seed: o.seed(), BufferFrac: tc.buffer, CooldownSlots: tc.cooldown,
		}, key)
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range cases {
		r := results[i]
		tbl.AddRow(fmt.Sprintf("%.2f%%", 100*tc.buffer), tc.cooldown,
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
	cases := []struct {
		delay      int
		predictive bool
	}{
		{0, false},
		{3, false},
		{3, true},
		{5, false},
		{5, true},
	}
	results, err := runner.MapN(o.workers(), len(cases), func(i int) (*sim.Result, error) {
		tc := cases[i]
		key := fmt.Sprintf("a5/%d/%d/%d/%v", o.seed(), o.gaiaDays(), tc.delay, tc.predictive)
		return cachedRun(sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRInt, Seed: o.seed(),
			MarketDelaySlots: tc.delay, Predictive: tc.predictive,
			PredictHorizonSlots: tc.delay + 3,
		}, key)
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range cases {
		r := results[i]
		tbl.AddRow(tc.delay, tc.predictive, r.OverloadSlots, r.EmergencyCount,
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
		Notes: []string{"VCG is exactly efficient but needs cost revelation and M+1 optimal solves; the market clears with one bisection over sealed bids"}}, nil
}
