package experiments

import (
	"fmt"
	"math/rand"

	"mpr/internal/core"
	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/tco"
)

func init() {
	register("x5", "Study: total cost of ownership impact (Section III-F)", runTCO)
	register("x6", "Study: priority-aware capping vs market ([32] baseline)", runPriorityBaseline)
	register("x7", "Study: job power phases vs reactive handling (Section I)", runPhases)
}

// runTCO prices the Section III-F TCO discussion with the simulation's
// measured reward payoffs and extra execution: oversubscription lowers
// the cost per delivered core-hour because infrastructure capital (UPS
// dominated) is spread over more cores.
func runTCO(o Options) (*Result, error) {
	sweep, err := gaiaSweep(o, paperOversubs, []sim.Algorithm{sim.AlgMPRStat})
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Study X5 — monthly TCO per delivered core-hour (Gaia, MPR-STAT)",
		"oversub", "cores", "infra capital $", "server capital $", "electricity $",
		"reward payoff $", "$/core-h", "saving vs 0%")
	var baseCost float64
	for _, x := range append([]float64{0}, paperOversubs...) {
		scn := tco.Scenario{BaseCores: 2004, OversubPct: x}
		if x > 0 {
			r := sweep[x][sim.AlgMPRStat]
			months := float64(r.Slots) / 60 / 720
			if months > 0 {
				scn.RewardCoreHMonth = r.PaymentCoreH / months
				scn.ExtraExecCoreHMonth = r.CostCoreH / months
			}
		}
		b, err := tco.Evaluate(tco.Params{}, scn)
		if err != nil {
			return nil, err
		}
		if x == 0 {
			baseCost = b.CostPerCoreH
		}
		saving := "—"
		if x > 0 && baseCost > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*(baseCost-b.CostPerCoreH)/baseCost)
		}
		tbl.AddRow(fmt.Sprintf("%.0f%%", x), b.Cores, b.InfraCapital, b.ServerCapital,
			b.Electricity, b.RewardPayoff, b.CostPerCoreH, saving)
	}
	return &Result{ID: "x5", Title: "Study X5", Tables: []*stats.Table{tbl},
		Notes: []string{"reward payoff and extra execution taken from the measured simulation; infrastructure capital is fixed at the base build"}}, nil
}

// runPriorityBaseline compares the market against priority-aware capping
// (the related-work mechanism of hyperscale data centers, [32]): when the
// operator's priorities happen to align with performance sensitivity the
// gap narrows, but misaligned priorities cost nearly as much as blind
// uniform slowdown.
func runPriorityBaseline(o Options) (*Result, error) {
	const n = 120
	parts, _ := syntheticPool(n, o.seed())
	rng := rand.New(rand.NewSource(o.seed() + 7))

	// Aligned priorities: rank by marginal cost at half reduction
	// (cheap-to-slow jobs get low priority = cut first).
	aligned := make([]int, n)
	for i, p := range parts {
		m := p.MarginalCost(0.5 * p.MaxReduction())
		switch {
		case m < 0.5:
			aligned[i] = 0
		case m < 1.0:
			aligned[i] = 1
		case m < 2.0:
			aligned[i] = 2
		default:
			aligned[i] = 3
		}
	}
	random := make([]int, n)
	for i := range random {
		random[i] = rng.Intn(4)
	}

	tbl := stats.NewTable("Study X6 — performance cost by mechanism (120 jobs)",
		"target (kW)", "OPT", "MPR-STAT", "priority (aligned)", "priority (random)", "EQL")
	maxW := 0.0
	for _, p := range parts {
		maxW += p.WattsPerCore * p.MaxFrac * p.Cores
	}
	// The priority arrays are computed once above and only read by the
	// cells; every solver builds its own working state from the shared
	// (read-only) pool.
	fracs := []float64{0.2, 0.4, 0.6}
	type x6Row struct {
		target, opt, market, pa, pr, eql float64
	}
	rows, err := runner.Map(o.workers(), fracs, func(_ int, frac float64) (x6Row, error) {
		target := frac * maxW
		opt, err := core.SolveOPT(parts, target, core.OPTDual)
		if err != nil {
			return x6Row{}, err
		}
		market, err := core.Clear(parts, target)
		if err != nil {
			return x6Row{}, err
		}
		var marketCost float64
		for i, p := range parts {
			marketCost += p.Cost(market.Reductions[i])
		}
		pa, err := core.SolvePriority(parts, aligned, target)
		if err != nil {
			return x6Row{}, err
		}
		pr, err := core.SolvePriority(parts, random, target)
		if err != nil {
			return x6Row{}, err
		}
		eql, err := core.SolveEQL(parts, target)
		if err != nil {
			return x6Row{}, err
		}
		return x6Row{target, opt.TotalCost, marketCost, pa.TotalCost, pr.TotalCost, eql.TotalCost}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tbl.AddRow(r.target/1000, r.opt, r.market, r.pa, r.pr, r.eql)
	}
	return &Result{ID: "x6", Title: "Study X6", Tables: []*stats.Table{tbl},
		Notes: []string{"priority capping needs the operator to know which jobs are cheap to slow; the market learns it from the bids"}}, nil
}

// runPhases quantifies Section I's motivation for reactive handling: job
// power phases make proactive per-job power prediction hard, but the
// reactive market only tracks the aggregate and handles the extra
// variance with raises.
func runPhases(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Study X7 — job power phases vs reactive handling (MPR-STAT at 15%)",
		"phase amplitude", "emergencies", "market invocations (incl. raises)",
		"overload minutes", "cost (core-h)")
	amps := []float64{0, 0.05, 0.10, 0.20}
	cfgs := make([]sim.Config, len(amps))
	for i, amp := range amps {
		cfgs[i] = sim.Config{
			Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRStat, Seed: o.seed(),
			PhaseAmp: amp,
		}
	}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	for i, amp := range amps {
		r := results[i]
		tbl.AddRow(fmt.Sprintf("%.0f%%", 100*amp), r.EmergencyCount,
			r.MarketInvocations, r.OverloadSlots, r.CostCoreH)
	}
	return &Result{ID: "x7", Title: "Study X7", Tables: []*stats.Table{tbl},
		Notes: []string{"the manager never models per-job phases — it reacts to the aggregate and re-clears (raises) when phases push power back up"}}, nil
}
