// Prototype cluster: the paper's Section V-F experiment on the emulated
// two-server, 40-core cluster.
//
// Two 30-minute (virtual time) runs against a 400 W power cap: one
// without any overload handling and one with MPR slowing the four
// applications down via per-core DVFS. The example prints the power
// timelines and the per-application reductions of Fig. 17.
//
// Run with: go run ./examples/prototype
package main

import (
	"fmt"
	"log"

	"mpr"
)

func main() {
	run := func(useMPR bool) *mpr.Cluster {
		c, err := mpr.NewCluster(mpr.ClusterConfig{Seed: 42, UseMPR: useMPR})
		if err != nil {
			log.Fatal(err)
		}
		c.RunFor(1800)
		return c
	}
	without := run(false).Result()
	with := run(true).Result()

	fmt.Println("power over 30 minutes (W, one sample per 2 min; cap = 400 W):")
	w1 := without.PowerSeries.Downsample(15)
	w2 := with.PowerSeries.Downsample(15)
	fmt.Println("   t(s)   without MPR   with MPR")
	for i := range w1.T {
		fmt.Printf("  %5d   %8.1f      %8.1f\n", w1.T[i], w1.V[i], w2.V[i])
	}

	fmt.Printf("\noverload seconds: %d without MPR vs %d with MPR (%d emergencies)\n",
		without.OverloadSeconds, with.OverloadSeconds, with.Emergencies)

	fmt.Println("\nper-application outcome with MPR (Fig. 17(b)):")
	for _, a := range with.Apps {
		fmt.Printf("  %-8s mean allocation %.3f, reduction %7.0f core-s, paid %7.1f core-s\n",
			a.Name, a.MeanAlloc, a.ReductionCoreSeconds, a.PaymentCoreSeconds)
	}
	fmt.Println("\napplications reduce different amounts based on their DVFS sensitivity and bids.")
}
