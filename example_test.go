package mpr_test

import (
	"fmt"

	"mpr"
)

// Clearing a market: two jobs offer resource reduction through their
// supply functions; the manager needs 500 W cut.
func ExampleClear() {
	xs, _ := mpr.ProfileByName("XSBench") // sensitive to slowdown
	rs, _ := mpr.ProfileByName("RSBench") // insensitive
	xsModel := mpr.NewCostModel(xs, 1, mpr.CostLinear)
	rsModel := mpr.NewCostModel(rs, 1, mpr.CostLinear)

	parts := []*mpr.Participant{
		{JobID: "xsbench", Cores: 16, Bid: mpr.CooperativeBid(16, xsModel),
			WattsPerCore: 125, MaxFrac: xs.MaxReduction()},
		{JobID: "rsbench", Cores: 16, Bid: mpr.CooperativeBid(16, rsModel),
			WattsPerCore: 125, MaxFrac: rs.MaxReduction()},
	}
	res, err := mpr.Clear(parts, 500)
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible: %v\n", res.Feasible)
	fmt.Printf("xsbench gives up %.2f cores, rsbench %.2f cores\n",
		res.Reductions[0], res.Reductions[1])
	// The insensitive application supplies (almost) everything.
	fmt.Printf("rsbench supplies more: %v\n", res.Reductions[1] > res.Reductions[0])
	// Output:
	// feasible: true
	// xsbench gives up 0.00 cores, rsbench 4.00 cores
	// rsbench supplies more: true
}

// The supply function δ(q) = [Δ − b/q]⁺: more incentive buys more
// reduction, capped at Δ.
func ExampleBid_Supply() {
	bid := mpr.Bid{Delta: 0.7, B: 0.14}
	for _, q := range []float64{0.1, 0.2, 0.4, 1.0} {
		fmt.Printf("q=%.1f → δ=%.3f\n", q, bid.Supply(q))
	}
	// Output:
	// q=0.1 → δ=0.000
	// q=0.2 → δ=0.000
	// q=0.4 → δ=0.350
	// q=1.0 → δ=0.560
}

// Oversubscription arithmetic: Table I's capacity planning.
func ExampleOversubscription() {
	o := mpr.Oversubscription{PeakW: 301800, Percent: 15}
	fmt.Printf("capacity: %.1f kW\n", o.Capacity()/1000)
	fmt.Printf("extra core-hours/month: %.0f\n", o.ExtraCoreHours(2004, 720))
	// Output:
	// capacity: 262.4 kW
	// extra core-hours/month: 216432
}

// The emergency state machine: declare on overload, lift after the
// cool-down once giving back the reduction is safe.
func ExampleNewEmergencyController() {
	ec, _ := mpr.NewEmergencyController(mpr.EmergencyConfig{
		CapacityW:     1000,
		CooldownSlots: 2,
	})
	d := ec.Step(1100, 1100) // overload: declare with ΔP = 1100 − 990
	fmt.Printf("declare=%v target=%.0f W\n", d.Declare, d.TargetW)
	ec.Step(850, 850) // reduced and demand receded: cool-down
	d = ec.Step(850, 850)
	fmt.Printf("lift=%v\n", d.Lift)
	// Output:
	// declare=true target=110 W
	// lift=true
}
