package sim

import (
	"math"
	"strings"
	"testing"

	"mpr/internal/check/floats"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/telemetry/tsdb"
	"mpr/internal/trace"
)

func testTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GenConfig{
		Name: "test", Seed: seed, TotalCores: 256, Days: 7,
		JobCount: 1500, MeanUtil: 0.72, MaxJobFrac: 0.25,
		UtilSigma: 0.006, Revert: 0.004, DiurnalAmp: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runAlgo(t testing.TB, tr *trace.Trace, algo Algorithm, oversub float64) *Result {
	t.Helper()
	res, err := Run(Config{
		Trace:      tr,
		OversubPct: oversub,
		Algorithm:  algo,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompletesAllJobs(t *testing.T) {
	tr := testTrace(t, 1)
	for _, algo := range append(Algorithms(), AlgNone) {
		res := runAlgo(t, tr, algo, 15)
		if res.JobsCompleted != res.JobsTotal {
			t.Errorf("%s: completed %d of %d jobs", algo, res.JobsCompleted, res.JobsTotal)
		}
		if res.JobsTotal != len(tr.Jobs) {
			t.Errorf("%s: simulated %d jobs, trace has %d", algo, res.JobsTotal, len(tr.Jobs))
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t, 2)
	a := runAlgo(t, tr, AlgMPRStat, 15)
	b := runAlgo(t, tr, AlgMPRStat, 15)
	if a.CostCoreH != b.CostCoreH || a.PaymentCoreH != b.PaymentCoreH ||
		a.EmergencyCount != b.EmergencyCount || a.OverloadSlots != b.OverloadSlots {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestOverloadsOccurAndAreHandled(t *testing.T) {
	tr := testTrace(t, 3)
	none := runAlgo(t, tr, AlgNone, 15)
	if none.EmergencyCount == 0 {
		t.Fatal("test trace produces no overloads at 15% — cannot exercise handling")
	}
	handled := runAlgo(t, tr, AlgMPRStat, 15)
	if handled.OverloadSlots >= none.OverloadSlots {
		t.Errorf("handling did not reduce overload time: %d vs %d", handled.OverloadSlots, none.OverloadSlots)
	}
	if handled.ReductionCoreH <= 0 {
		t.Error("no resource reduction recorded")
	}
	if handled.EmergencySlots < handled.EmergencyCount {
		t.Error("emergency slots below emergency count")
	}
}

// The paper's central market result: users are always paid more than their
// cost (Fig. 11(a)).
func TestUsersProfitFromParticipation(t *testing.T) {
	tr := testTrace(t, 4)
	for _, algo := range []Algorithm{AlgMPRStat, AlgMPRInt} {
		res := runAlgo(t, tr, algo, 15)
		if res.CostCoreH <= 0 {
			t.Fatalf("%s: no cost accrued — no overloads handled?", algo)
		}
		if res.RewardPercent() <= 100 {
			t.Errorf("%s: reward = %.1f%% of cost, want > 100%%", algo, res.RewardPercent())
		}
	}
}

// Cost ordering of Fig. 9(a): EQL ≥ MPR-INT ≈ OPT, averaged across seeds —
// individual short traces are noisy because each algorithm's reductions
// change the subsequent emergency dynamics.
func TestCostOrdering(t *testing.T) {
	sums := map[Algorithm]float64{}
	for _, seed := range []int64{5, 55, 555} {
		tr := testTrace(t, seed)
		for _, algo := range Algorithms() {
			sums[algo] += runAlgo(t, tr, algo, 15).CostCoreH
		}
	}
	if sums[AlgOPT] <= 0 {
		t.Fatal("no overloads — ordering test vacuous")
	}
	if sums[AlgEQL] < sums[AlgMPRInt] {
		t.Errorf("EQL cost %v below MPR-INT %v", sums[AlgEQL], sums[AlgMPRInt])
	}
	if sums[AlgEQL] < sums[AlgOPT] {
		t.Errorf("EQL cost %v below OPT %v", sums[AlgEQL], sums[AlgOPT])
	}
	if ratio := sums[AlgMPRInt] / sums[AlgOPT]; ratio < 0.7 || ratio > 1.6 {
		t.Errorf("MPR-INT/OPT cost ratio %.3f outside [0.7, 1.6]", ratio)
	}
	if ratio := sums[AlgMPRStat] / sums[AlgOPT]; ratio < 0.7 || ratio > 2.5 {
		t.Errorf("MPR-STAT/OPT cost ratio %.3f outside [0.7, 2.5]", ratio)
	}
}

// The manager's gain is orders of magnitude larger than the payout
// (Fig. 11(b)).
func TestManagerGainDominatesPayout(t *testing.T) {
	tr := testTrace(t, 6)
	res := runAlgo(t, tr, AlgMPRStat, 15)
	if res.PaymentCoreH <= 0 {
		t.Fatal("no payments")
	}
	if res.GainRatio() < 10 {
		t.Errorf("gain ratio %.1f, want >= 10", res.GainRatio())
	}
}

// More oversubscription → more overloads, more affected jobs, more cost
// (Fig. 8).
func TestMonotoneInOversubscription(t *testing.T) {
	tr := testTrace(t, 7)
	prev := runAlgo(t, tr, AlgMPRStat, 5)
	for _, x := range []float64{10, 15, 20} {
		cur := runAlgo(t, tr, AlgMPRStat, x)
		if cur.EmergencySlots < prev.EmergencySlots {
			t.Errorf("emergency slots decreased at %v%%: %d < %d", x, cur.EmergencySlots, prev.EmergencySlots)
		}
		if cur.CostCoreH < prev.CostCoreH*0.8 {
			t.Errorf("cost decreased at %v%%: %v < %v", x, cur.CostCoreH, prev.CostCoreH)
		}
		prev = cur
	}
}

// Lower participation concentrates the reduction on fewer jobs and raises
// cost and payments (Fig. 12).
func TestParticipationSensitivity(t *testing.T) {
	tr := testTrace(t, 8)
	full, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, Participation: 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, Participation: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if full.CostCoreH <= 0 || half.CostCoreH <= 0 {
		t.Fatal("no costs accrued")
	}
	if half.CostCoreH < full.CostCoreH {
		t.Errorf("half participation cost %v below full %v", half.CostCoreH, full.CostCoreH)
	}
}

// Underestimating the bidding cost still leaves users with net rewards
// (Fig. 13(b)).
func TestUnderestimationKeepsNetGain(t *testing.T) {
	tr := testTrace(t, 9)
	res, err := Run(Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7,
		CostErrorUnder: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostCoreH <= 0 {
		t.Fatal("no costs")
	}
	if res.RewardPercent() <= 100 {
		t.Errorf("reward %.1f%% with 30%% underestimation, want > 100%%", res.RewardPercent())
	}
}

func TestRandomCostErrorTolerated(t *testing.T) {
	tr := testTrace(t, 10)
	clean, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, CostErrorRand: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if clean.CostCoreH <= 0 {
		t.Fatal("no costs")
	}
	if ratio := noisy.CostCoreH / clean.CostCoreH; ratio > 1.35 || ratio < 0.7 {
		t.Errorf("random error changed cost by %.2fx, want roughly unchanged", ratio)
	}
}

// TestRecordSeries: the sampled power timeline holds one point per
// simulated slot, and delivered power never exceeds demand.
func TestRecordSeries(t *testing.T) {
	tr := testTrace(t, 11)
	// A ring longer than the week-long run keeps every sample.
	res, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7, SampleSeries: true, SeriesCapacity: 16384})
	if err != nil {
		t.Fatal(err)
	}
	query := func(name string) []tsdb.Point {
		t.Helper()
		sd := res.Series.Query(tsdb.Query{Name: name})
		if len(sd) != 1 || len(sd[0].Points) == 0 {
			t.Fatalf("%s: %d series, want 1 with points", name, len(sd))
		}
		return sd[0].Points
	}
	demand, delivered := query(SeriesPowerDemandW), query(SeriesPowerDeliveredW)
	maxDemand, maxDelivered := demand[0].V, delivered[0].V
	for _, p := range demand {
		maxDemand = math.Max(maxDemand, p.V)
	}
	for _, p := range delivered {
		maxDelivered = math.Max(maxDelivered, p.V)
	}
	if len(demand) != res.Slots {
		t.Errorf("demand series holds %d samples, want one per slot (%d)", len(demand), res.Slots)
	}
	if maxDelivered > maxDemand+1e-6 {
		t.Errorf("delivered max %v exceeds demand max %v", maxDelivered, maxDemand)
	}
}

func TestPerProfileAccounting(t *testing.T) {
	tr := testTrace(t, 12)
	res := runAlgo(t, tr, AlgMPRInt, 15)
	var sumRed, sumCost float64
	var sumJobs int
	for _, ps := range res.PerProfile {
		sumRed += ps.ReductionCoreH
		sumCost += ps.CostCoreH
		sumJobs += ps.Jobs
	}
	if sumJobs != res.JobsTotal {
		t.Errorf("profile job sum %d != total %d", sumJobs, res.JobsTotal)
	}
	if !floats.AbsEqual(sumRed, res.ReductionCoreH, 1e-6) {
		t.Errorf("profile reduction sum %v != total %v", sumRed, res.ReductionCoreH)
	}
	if !floats.AbsEqual(sumCost, res.CostCoreH, 1e-6) {
		t.Errorf("profile cost sum %v != total %v", sumCost, res.CostCoreH)
	}
	// Insensitive apps give up more than sensitive ones under MPR-INT
	// (Fig. 9(c)).
	rs, moc := res.PerProfile["RSBench"], res.PerProfile["SimpleMOC"]
	if rs == nil || moc == nil {
		t.Fatal("profiles missing")
	}
	if rs.ReductionCoreH <= moc.ReductionCoreH {
		t.Errorf("RSBench reduction %v should exceed SimpleMOC %v", rs.ReductionCoreH, moc.ReductionCoreH)
	}
}

func TestRuntimeIncreaseSmall(t *testing.T) {
	tr := testTrace(t, 13)
	res := runAlgo(t, tr, AlgMPRInt, 15)
	if res.JobsAffected == 0 {
		t.Fatal("no affected jobs")
	}
	// Fig. 9(b): average runtime increase below a few percent.
	if res.MeanRuntimeIncrease < 0 || res.MeanRuntimeIncrease > 0.10 {
		t.Errorf("mean runtime increase = %.3f, want small and non-negative", res.MeanRuntimeIncrease)
	}
}

func TestGPUHeterogeneousRun(t *testing.T) {
	tr := testTrace(t, 14)
	appPower := map[string]power.CoreModel{}
	for _, p := range perf.GPUProfiles() {
		appPower[p.Name] = power.DefaultGPUCoreModel
	}
	res, err := Run(Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7,
		Profiles:  perf.GPUProfiles(),
		CoreModel: power.DefaultGPUCoreModel,
		AppPower:  appPower,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != res.JobsTotal {
		t.Errorf("GPU run incomplete: %d/%d", res.JobsCompleted, res.JobsTotal)
	}
	if res.CostCoreH <= 0 {
		t.Error("GPU run accrued no cost")
	}
}

func TestConfigValidation(t *testing.T) {
	tr := testTrace(t, 15)
	bad := []Config{
		{},
		{Trace: tr, OversubPct: -1},
		{Trace: tr, Algorithm: "bogus"},
		{Trace: tr, Participation: 2},
		{Trace: tr, StatBidFactor: -1},
		{Trace: tr, CostErrorRand: 1.5},
		{Trace: tr, CostErrorUnder: 1},
		{Trace: tr, TraceEvents: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// TestConfigRefusesNonFinite: every float knob refuses NaN and ±Inf up
// front, with the sim: message naming it, and the bid factor refuses a
// negative value. Unchecked, a NaN OversubPct ran with a NaN capacity and
// no emergencies, a NaN Participation meant nobody bid, and a NaN
// StatBidFactor failed only inside core.
func TestConfigRefusesNonFinite(t *testing.T) {
	tr := sparseTrace(5, 2, 1000, 30)
	res, err := Run(Config{Trace: tr, OversubPct: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmergencyCount != 5 {
		t.Fatalf("valid config: %d emergencies, want one per burst", res.EmergencyCount)
	}
	fields := map[string]func(*Config, float64){
		"OversubPct":        func(c *Config, v float64) { c.OversubPct = v },
		"CapacityOverrideW": func(c *Config, v float64) { c.CapacityOverrideW = v },
		"Participation":     func(c *Config, v float64) { c.Participation = v },
		"CostErrorRand":     func(c *Config, v float64) { c.CostErrorRand = v },
		"CostErrorUnder":    func(c *Config, v float64) { c.CostErrorUnder = v },
		"StatBidFactor":     func(c *Config, v float64) { c.StatBidFactor = v },
		"PhaseAmp":          func(c *Config, v float64) { c.PhaseAmp = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := Config{Trace: tr, OversubPct: 15, Seed: 7}
			set(&cfg, v)
			_, err := Run(cfg)
			if want := "sim: " + name + " must be finite"; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s = %v: err %v, want %q", name, v, err, want)
			}
		}
	}
	if _, err := Run(Config{Trace: tr, OversubPct: 15, Seed: 7, StatBidFactor: -2}); err == nil || !strings.Contains(err.Error(), "bid factor") {
		t.Errorf("StatBidFactor = -2: err %v, want the non-negative bid factor refusal", err)
	}
}

func TestAlgorithmsList(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 4 || algos[0] != AlgOPT || algos[3] != AlgMPRInt {
		t.Errorf("algorithms = %v", algos)
	}
}
