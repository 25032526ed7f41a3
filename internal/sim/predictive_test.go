package sim

import (
	"testing"
)

// A market delay (modeling MPR-INT's communication rounds) leaves the
// system overloaded while the market clears.
func TestMarketDelayProlongsOverload(t *testing.T) {
	tr := testTrace(t, 21)
	immediate, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, MarketDelaySlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if immediate.EmergencyCount == 0 {
		t.Fatal("no emergencies to study")
	}
	if delayed.OverloadSlots <= immediate.OverloadSlots {
		t.Errorf("delayed market should overload longer: %d vs %d",
			delayed.OverloadSlots, immediate.OverloadSlots)
	}
}

// Predictive invocation (Section III-D) recovers most of the overload
// time a slow market loses.
func TestPredictiveInvocationHelpsSlowMarket(t *testing.T) {
	tr := testTrace(t, 22)
	reactive, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7, MarketDelaySlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	predictive, err := Run(Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7,
		MarketDelaySlots: 3, Predictive: true, PredictHorizonSlots: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reactive.OverloadSlots == 0 {
		t.Fatal("no overload slots to recover")
	}
	if predictive.OverloadSlots >= reactive.OverloadSlots {
		t.Errorf("prediction did not reduce overload time: %d vs %d",
			predictive.OverloadSlots, reactive.OverloadSlots)
	}
	// Prediction may fire a few extra (early) emergencies but must still
	// complete all jobs.
	if predictive.JobsCompleted != predictive.JobsTotal {
		t.Errorf("predictive run incomplete: %d/%d", predictive.JobsCompleted, predictive.JobsTotal)
	}
}

func TestPredictiveValidation(t *testing.T) {
	tr := testTrace(t, 23)
	if _, err := Run(Config{Trace: tr, Algorithm: AlgMPRStat, MarketDelaySlots: -1}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := Run(Config{Trace: tr, Algorithm: AlgMPRStat, PredictHorizonSlots: -2}); err == nil {
		t.Error("negative horizon accepted")
	}
}

// A delayed order must not resurrect after the emergency lifts.
func TestDelayedOrderClearedOnLift(t *testing.T) {
	tr := testTrace(t, 24)
	res, err := Run(Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7,
		MarketDelaySlots: 2, CooldownSlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != res.JobsTotal {
		t.Errorf("incomplete: %d/%d", res.JobsCompleted, res.JobsTotal)
	}
}

// Power phases (Section I's motivation for reactive handling) create
// extra overloads beyond the nominal peak; MPR still handles them, using
// the Raise path when phases push power past the initial reduction.
func TestPowerPhasesHandled(t *testing.T) {
	tr := testTrace(t, 25)
	flat, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	phased, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7, PhaseAmp: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if phased.JobsCompleted != phased.JobsTotal {
		t.Fatalf("phased run incomplete: %d/%d", phased.JobsCompleted, phased.JobsTotal)
	}
	// Phases add power variance → at least as many emergencies.
	if phased.EmergencyCount < flat.EmergencyCount {
		t.Errorf("phases reduced emergencies: %d vs %d", phased.EmergencyCount, flat.EmergencyCount)
	}
	// Raises happen when power keeps climbing mid-emergency: with phases
	// the market is invoked more often than emergencies are declared.
	if phased.MarketInvocations <= phased.EmergencyCount {
		t.Errorf("expected raises under phases: %d invocations for %d emergencies",
			phased.MarketInvocations, phased.EmergencyCount)
	}
	// Handling still keeps the residual overload small: the emergency
	// machinery must not collapse under phase noise.
	if phased.OverloadSlots > phased.Slots/5 {
		t.Errorf("phased run overloaded %d of %d slots", phased.OverloadSlots, phased.Slots)
	}
}

func TestPhaseValidation(t *testing.T) {
	tr := testTrace(t, 26)
	if _, err := Run(Config{Trace: tr, PhaseAmp: 0.9}); err == nil {
		t.Error("excessive phase amplitude accepted")
	}
}

// Emergencies halt admissions; queue waits must grow with
// oversubscription pressure.
func TestQueueWaitGrowsWithOversubscription(t *testing.T) {
	tr := testTrace(t, 27)
	low := runAlgo(t, tr, AlgMPRStat, 5)
	high := runAlgo(t, tr, AlgMPRStat, 20)
	if high.MeanQueueWaitMin < low.MeanQueueWaitMin {
		t.Errorf("queue wait should grow with oversubscription: %v vs %v",
			high.MeanQueueWaitMin, low.MeanQueueWaitMin)
	}
	if low.MeanQueueWaitMin < 0 {
		t.Errorf("negative queue wait %v", low.MeanQueueWaitMin)
	}
}
