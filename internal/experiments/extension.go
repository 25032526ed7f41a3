package experiments

import (
	"fmt"

	"mpr/internal/carbon"
	"mpr/internal/core"
	"mpr/internal/power"
	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/trace"
)

func init() {
	register("x1", "Extension: carbon-aware demand response (merit ④)", runCarbonDR)
	register("x2", "Study: market collusion (Section III-F)", runCollusion)
	register("x3", "Study: power attacks and direct-capping defense (Section III-F)", runPowerAttack)
	register("x4", "Study: partitioned power infrastructures (Section III-A)", runPartitioned)
}

// runCarbonDR exercises the paper's "beyond oversubscription" claim: the
// same market cuts carbon by buying reduction during dirty-grid hours.
func runCarbonDR(o Options) (*Result, error) {
	days := 14
	if o.Quick {
		days = 5
	}
	tr, err := cachedTrace(trace.GaiaConfig(o.seed()).WithDays(days))
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Extension X1 — carbon-aware demand response on a Gaia-like workload",
		"threshold (gCO2/kWh)", "DR events", "DR minutes", "energy saved (kWh)",
		"CO2 saved (kg)", "CO2 saved %", "user cost (core-h)", "reward %")
	thresholds := []float64{0, 380, 430, 480}
	results, err := runner.Map(o.workers(), thresholds, func(_ int, th float64) (*carbon.Result, error) {
		return carbon.Run(carbon.Config{Trace: tr, Seed: o.seed(), ThresholdG: th})
	})
	if err != nil {
		return nil, err
	}
	for i, th := range thresholds {
		r := results[i]
		label := fmt.Sprintf("%.0f", r.ThresholdG)
		if th == 0 {
			label = fmt.Sprintf("auto (%.0f)", r.ThresholdG)
		}
		tbl.AddRow(label, r.DREvents, r.DRSlots, r.EnergySavedKWh,
			r.SavedKgCO2, fmt.Sprintf("%.2f%%", 100*r.SavedKgCO2/r.BaselineKgCO2),
			r.CostCoreH, fmt.Sprintf("%.0f%%", r.RewardPercent()))
	}
	return &Result{ID: "x1", Title: "Extension X1", Tables: []*stats.Table{tbl},
		Notes: []string{"users keep a positive net gain while the grid gets cleaner — the overload market reused verbatim"}}, nil
}

// runCollusion quantifies Section III-F's collusion discussion: a
// coalition inflating its bids b raises the clearing price for everyone,
// but the coalition needs substantial market share before its own payoff
// improves.
func runCollusion(o Options) (*Result, error) {
	const n = 200
	parts, _ := syntheticPool(n, o.seed())
	target := poolTarget(parts)

	honest, err := core.Clear(parts, target)
	if err != nil {
		return nil, err
	}
	honestPay := make([]float64, n)
	for i := range parts {
		honestPay[i] = honest.Price * honest.Reductions[i]
	}

	tbl := stats.NewTable("Study X2 — bid collusion (coalition inflates b by 3x)",
		"coalition share", "clearing price", "price increase", "coalition payoff change",
		"outsider payoff change", "manager payout increase")
	shares := []float64{0, 0.05, 0.10, 0.25, 0.50}
	type x2Row struct {
		res                *core.ClearingResult
		coalChange, outChg string
	}
	rows, err := runner.Map(o.workers(), shares, func(_ int, share float64) (x2Row, error) {
		// Each cell builds its own pool: bids are mutated per coalition.
		k := int(share * n)
		colluding, _ := syntheticPool(n, o.seed())
		for i := 0; i < k; i++ {
			colluding[i].Bid.B *= 3
		}
		res, err := core.Clear(colluding, target)
		if err != nil {
			return x2Row{}, err
		}
		var coalHonest, coalNow, outHonest, outNow float64
		for i := range colluding {
			pay := res.Price * res.Reductions[i]
			if i < k {
				coalHonest += honestPay[i]
				coalNow += pay
			} else {
				outHonest += honestPay[i]
				outNow += pay
			}
		}
		row := x2Row{res: res, coalChange: "n/a", outChg: "n/a"}
		if coalHonest > 0 {
			row.coalChange = fmt.Sprintf("%+.1f%%", 100*(coalNow-coalHonest)/coalHonest)
		}
		if outHonest > 0 {
			row.outChg = fmt.Sprintf("%+.1f%%", 100*(outNow-outHonest)/outHonest)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for i, share := range shares {
		res := rows[i].res
		tbl.AddRow(fmt.Sprintf("%.0f%%", 100*share), res.Price,
			fmt.Sprintf("%+.1f%%", 100*(res.Price-honest.Price)/honest.Price),
			rows[i].coalChange, rows[i].outChg,
			fmt.Sprintf("%+.1f%%", 100*(res.PayoutRate-honest.PayoutRate)/honest.PayoutRate))
	}
	return &Result{ID: "x2", Title: "Study X2", Tables: []*stats.Table{tbl},
		Notes: []string{"withholding supply raises the price but shifts volume to outsiders; small coalitions lose more volume than they gain in price — the paper's argument that collusion does not pay at HPC scale"}}, nil
}

// runPowerAttack reproduces the Section III-F threat: an attacker who
// detects market invocations and spikes its power draw to deepen the
// overload, and the manager's defense of directly capping all jobs when
// the market-supplied reduction keeps falling short.
func runPowerAttack(o Options) (*Result, error) {
	const (
		slots        = 240
		capacityW    = 100000.0
		attackFactor = 1.30 // attacker turbo-boost on its dynamic power
	)
	parts, _ := syntheticPool(60, o.seed())

	run := func(attackers int, defense bool) (overloadSlots, directCaps int, payout float64) {
		ec, _ := power.NewEmergencyController(power.EmergencyConfig{CapacityW: capacityW})
		// Baseline draw ~5% above capacity so an emergency triggers.
		var baseW float64
		for _, p := range parts {
			baseW += p.Cores * (25 + p.WattsPerCore)
		}
		scale := 1.05 * capacityW / baseW
		alloc := make([]float64, len(parts))
		for i := range alloc {
			alloc[i] = 1
		}
		attacking := false
		shortStreak := 0
		for s := 0; s < slots; s++ {
			var demand, delivered float64
			for i, p := range parts {
				dyn := p.WattsPerCore
				if attacking && i < attackers {
					dyn *= attackFactor
				}
				demand += scale * p.Cores * (25 + dyn)
				delivered += scale * p.Cores * (25 + alloc[i]*dyn)
			}
			if delivered > capacityW {
				overloadSlots++
			}
			d := ec.Step(demand, delivered)
			if d.Declare || d.Raise {
				attacking = attackers > 0 // attacker sees the invocation
				res, err := core.Clear(parts, d.TargetW/scale)
				if err == nil {
					payout += res.PayoutRate
					for i, p := range parts {
						if i < attackers {
							// Malicious users ignore their reduction
							// orders — only hardware capping binds them.
							continue
						}
						alloc[i] = 1 - res.Reductions[i]/p.Cores
					}
				}
			}
			if d.Lift {
				attacking = false
				for i := range alloc {
					alloc[i] = 1
				}
			}
			// Defense: if the reduced system still overloads for three
			// consecutive slots, cap everyone directly, bypassing the
			// market (no payments for the forced cut).
			if defense {
				if delivered > capacityW && ec.State() == power.StateEmergency {
					shortStreak++
					if shortStreak >= 3 {
						for i := range alloc {
							alloc[i] *= 0.95
							if alloc[i] < 0.3 {
								alloc[i] = 0.3
							}
						}
						directCaps++
					}
				} else {
					shortStreak = 0
				}
			}
		}
		return overloadSlots, directCaps, payout
	}

	tbl := stats.NewTable("Study X3 — power attacks during market invocation",
		"scenario", "overload minutes", "direct caps", "market payout rate")
	scenarios := []struct {
		name      string
		attackers int
		defense   bool
	}{
		{"no attack", 0, false},
		{"attack, no defense", 15, false},
		{"attack + direct capping", 15, true},
	}
	type x3Row struct {
		over, caps int
		payout     float64
	}
	// Each scenario keeps its own controller and allocation state; the
	// shared pool is only read (core.Clear copies into its own index).
	rows, err := runner.MapN(o.workers(), len(scenarios), func(i int) (x3Row, error) {
		over, caps, payout := run(scenarios[i].attackers, scenarios[i].defense)
		return x3Row{over, caps, payout}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range scenarios {
		tbl.AddRow(tc.name, rows[i].over, rows[i].caps, rows[i].payout)
	}
	return &Result{ID: "x3", Title: "Study X3", Tables: []*stats.Table{tbl},
		Notes: []string{"the attacker prolongs the overload until the manager bypasses MPR and caps power directly — the mitigation the paper prescribes"}}, nil
}

// runPartitioned exercises Section III-A's extension to data centers with
// multiple parallel power infrastructures: each partition has its own
// capacity C_i, aggregate power P_i(t), emergency controller, and market.
// Splitting the same workload across two independent UPS domains loses
// statistical multiplexing — each partition sees sharper relative peaks —
// so partitioned operation overloads more often at the same
// oversubscription level.
func runPartitioned(o Options) (*Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	doms, err := cachedSplit(tr)
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Study X4 — unified vs partitioned power infrastructure (MPR-STAT)",
		"oversub", "unified overload min", "partitioned overload min",
		"unified cost (core-h)", "partitioned cost (core-h)")
	// Two-stage matrix: the partitioned cells need each unified run's
	// CapacityW, so the unified sweep completes first, then the 2·len
	// domain cells fan out.
	oversubs := []float64{10, 15, 20}
	unis, err := gaiaSweep(o, oversubs, []sim.Algorithm{sim.AlgMPRStat})
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, x := range oversubs {
		for _, dom := range doms {
			// Each domain gets half of the unified oversubscribed
			// capacity — the same infrastructure, split in two.
			cfgs = append(cfgs, sim.Config{
				Trace: dom, OversubPct: x, Algorithm: sim.AlgMPRStat, Seed: o.seed(),
				CapacityOverrideW: unis[x][sim.AlgMPRStat].CapacityW / 2,
			})
		}
	}
	domRes, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	for xi, x := range oversubs {
		uni := unis[x][sim.AlgMPRStat]
		var partOver int
		var partCost float64
		for d := range doms {
			r := domRes[xi*len(doms)+d]
			partOver += r.OverloadSlots
			partCost += r.CostCoreH
		}
		tbl.AddRow(fmt.Sprintf("%.0f%%", x), uni.OverloadSlots, partOver,
			uni.CostCoreH, partCost)
	}
	return &Result{ID: "x4", Title: "Study X4", Tables: []*stats.Table{tbl},
		Notes: []string{"each partition runs its own capacity, emergency controller, and market (Section III-A); partitioning loses statistical multiplexing"}}, nil
}

// cachedSplit deals tr's jobs round-robin into two domains of half its
// cores, once per trace: the run cache holds traces by pointer, so the
// same two domain traces must come back on every call for x4's domain
// runs to be shared.
func cachedSplit(tr *trace.Trace) ([2]*trace.Trace, error) {
	return singleflight(splitCache, tr, func() ([2]*trace.Trace, error) {
		half := tr.TotalCores / 2
		doms := [2]*trace.Trace{
			{Name: tr.Name + "-domA", TotalCores: half},
			{Name: tr.Name + "-domB", TotalCores: half},
		}
		for i, j := range tr.Jobs {
			// A job wider than a domain is clamped to the domain's
			// cores and, like every job, dealt by its index's parity.
			j.Cores = min(j.Cores, half)
			doms[i%2].Jobs = append(doms[i%2].Jobs, j)
		}
		return doms, nil
	})
}
