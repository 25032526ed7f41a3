package check

import (
	"testing"
	"time"
)

// The base seeds are fixed so CI runs are reproducible; any failure
// message carries the derived per-instance seed, which alone reproduces
// the failing instance via NewGen.
const (
	diffSeedClear = 0x5eed_0001
	diffSeedOPT   = 0x5eed_0003
)

// diffInstances is the per-pair instance budget: ≥ 5,000 generated
// instances per solver pair (the acceptance bar of the verification
// harness), trimmed under -short.
func diffInstances(t *testing.T) int {
	if testing.Short() {
		return 1000
	}
	return 6000
}

// TestDiffSolvers cross-checks the closed-form segmented solver
// against the bisection solver on thousands of generated instances,
// asserting both the pairwise agreement and the invariant catalog.
func TestDiffSolvers(t *testing.T) {
	start := time.Now()
	st, err := DiffSolvers(diffSeedClear, diffInstances(t), 96)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("closed-form vs bisection: %d instances, %d participants, %d infeasible, %d singleton in %v",
		st.Instances, st.Participants, st.Infeasible, st.Singleton, time.Since(start))
	if st.Instances < diffInstances(t) {
		t.Errorf("ran %d instances, want ≥ %d", st.Instances, diffInstances(t))
	}
	// The generator must actually produce the adversarial shapes the
	// differential run claims to cover.
	if st.Infeasible == 0 {
		t.Error("no infeasible instances generated")
	}
	if st.Singleton == 0 {
		t.Error("no degenerate single-participant markets generated")
	}
}

// TestDiffSolversLargePools widens the pool-size range so breakpoint
// binary searches cross cache-line and recursion-depth regimes; fewer
// instances, same invariants.
func TestDiffSolversLargePools(t *testing.T) {
	if testing.Short() {
		t.Skip("large pools skipped in -short")
	}
	st, err := DiffSolvers(diffSeedClear+7, 300, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances != 300 {
		t.Errorf("ran %d instances, want 300", st.Instances)
	}
}

// TestDiffMarketVsOPT cross-checks the interactive market against the
// OPT KKT dual fast path on analytic quadratic-cost pools, plus the
// OPT ≤ STAT ≤ EQL cost ordering with cooperative static bids.
func TestDiffMarketVsOPT(t *testing.T) {
	start := time.Now()
	st, err := DiffMarketVsOPT(diffSeedOPT, diffInstances(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MPR-INT vs OPT dual: %d instances, %d participants, costs OPT %.0f ≤ STAT %.0f vs EQL %.0f (STAT>EQL on %d) in %v",
		st.Instances, st.Participants, st.OPTCost, st.StatCost, st.EQLCost, st.StatAboveEQL, time.Since(start))
	// The paper's Fig. 9 ordering, asserted in aggregate: OPT ≤ STAT is
	// a per-instance theorem (already enforced), and STAT beats the
	// cost-oblivious EQL baseline over the run as a whole even though
	// individual adversarial pools can invert that leg.
	if st.StatCost > st.EQLCost {
		t.Errorf("aggregate STAT cost %.1f exceeds EQL %.1f — supply-function bidding lost to uniform slowdown",
			st.StatCost, st.EQLCost)
	}
	if st.OPTCost > st.StatCost {
		t.Errorf("aggregate OPT cost %.1f exceeds STAT %.1f", st.OPTCost, st.StatCost)
	}
	if rate := float64(st.StatAboveEQL) / float64(st.Instances); rate > 0.25 {
		t.Errorf("STAT above EQL on %.0f%% of instances — ordering no longer holds statistically", 100*rate)
	}
}
