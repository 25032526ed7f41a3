package cluster

import (
	"math"
	"testing"
)

func TestDefaultAppsDrawAboveCap(t *testing.T) {
	c, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalCores() != 40 {
		t.Errorf("cores = %d, want 40 (two 20-core servers)", c.TotalCores())
	}
	// Full-speed power must exceed the 400 W cap to create overloads.
	if p := c.truePowerW(); p <= 400 || p > 600 {
		t.Errorf("full-speed power = %.0f W, want in (400, 600]", p)
	}
}

func TestWithoutMPROverloadPersists(t *testing.T) {
	c, err := New(Config{Seed: 2, UseMPR: false})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(1800) // 30 virtual minutes
	res := c.Result()
	// Without handling, nearly the whole run is overloaded.
	if res.OverloadSeconds < 1500 {
		t.Errorf("overload seconds = %d, want ~1800 without MPR", res.OverloadSeconds)
	}
	for _, a := range res.Apps {
		if a.ReductionCoreSeconds != 0 {
			t.Errorf("%s reduced without MPR", a.Name)
		}
	}
}

func TestMPRHandlesOverload(t *testing.T) {
	c, err := New(Config{Seed: 3, UseMPR: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(1800)
	res := c.Result()
	if res.Emergencies == 0 {
		t.Fatal("no emergency declared")
	}
	// MPR reacts within the 10 s filter plus a couple of control steps;
	// the overload must not persist.
	if res.OverloadSeconds > 300 {
		t.Errorf("overload seconds = %d with MPR, want far below 1800", res.OverloadSeconds)
	}
	var totalRed float64
	for _, a := range res.Apps {
		totalRed += a.ReductionCoreSeconds
	}
	if totalRed <= 0 {
		t.Error("no resource reduction recorded")
	}
	// Power settles near/below the cap: the mean of the last 10 minutes
	// must be at most the cap plus meter noise.
	s := res.PowerSeries
	var tail float64
	n := 0
	for i := s.Len() - 600; i < s.Len(); i++ {
		tail += s.V[i]
		n++
	}
	tail /= float64(n)
	if tail > 405 {
		t.Errorf("steady-state power %.1f W above cap", tail)
	}
}

// Different applications reduce different amounts based on their
// performance impact (Fig. 17(b)): XSBench (sensitive) keeps more of its
// allocation than HPCCG (insensitive).
func TestPerAppReductionsDiffer(t *testing.T) {
	c, err := New(Config{Seed: 4, UseMPR: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(1800)
	res := c.Result()
	byName := map[string]AppOutcome{}
	for _, a := range res.Apps {
		byName[a.Name] = a
	}
	xs, hp := byName["XSBench"], byName["HPCCG"]
	if xs.ReductionCoreSeconds >= hp.ReductionCoreSeconds {
		t.Errorf("XSBench reduction %.0f should be below HPCCG %.0f",
			xs.ReductionCoreSeconds, hp.ReductionCoreSeconds)
	}
}

// Users get paid for their reductions under MPR.
func TestPrototypePayments(t *testing.T) {
	c, err := New(Config{Seed: 5, UseMPR: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(1200)
	res := c.Result()
	var pay float64
	for _, a := range res.Apps {
		pay += a.PaymentCoreSeconds
	}
	if pay <= 0 {
		t.Error("no payments recorded")
	}
}

// MPR slows work down only modestly: work done with MPR is below the
// unconstrained run but above the worst case.
func TestWorkProgressUnderMPR(t *testing.T) {
	free, err := New(Config{Seed: 6, UseMPR: false})
	if err != nil {
		t.Fatal(err)
	}
	free.RunFor(1800)
	capped, err := New(Config{Seed: 6, UseMPR: true})
	if err != nil {
		t.Fatal(err)
	}
	capped.RunFor(1800)
	var freeWork, cappedWork float64
	for _, a := range free.Result().Apps {
		freeWork += a.WorkDone
	}
	for _, a := range capped.Result().Apps {
		cappedWork += a.WorkDone
	}
	if cappedWork >= freeWork {
		t.Errorf("capped work %.0f should be below free %.0f", cappedWork, freeWork)
	}
	if cappedWork < 0.7*freeWork {
		t.Errorf("capped work %.0f lost more than 30%% vs %.0f", cappedWork, freeWork)
	}
}

func TestFreqSweepShapes(t *testing.T) {
	pts, err := FreqSweep(DefaultApps(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4*8 {
		t.Fatalf("points = %d", len(pts))
	}
	// Per app: power increases with frequency, normalized runtime
	// decreases, and runtime at FreqMax is 1.
	perApp := map[string][]FreqSweepPoint{}
	for _, p := range pts {
		perApp[p.App] = append(perApp[p.App], p)
	}
	for name, ps := range perApp {
		for i := 1; i < len(ps); i++ {
			if ps[i].DynPowerW <= ps[i-1].DynPowerW {
				t.Errorf("%s: power not increasing with frequency", name)
			}
			if ps[i].NormRuntime >= ps[i-1].NormRuntime {
				t.Errorf("%s: runtime not decreasing with frequency", name)
			}
		}
		last := ps[len(ps)-1]
		if math.Abs(last.NormRuntime-1) > 1e-9 {
			t.Errorf("%s: runtime at FreqMax = %v, want 1", name, last.NormRuntime)
		}
	}
	// Applications differ (Fig. 16: "the impact of CPU speed change is
	// different for different applications").
	xsLow := perApp["XSBench"][0].NormRuntime
	hpLow := perApp["HPCCG"][0].NormRuntime
	if math.Abs(xsLow-hpLow) < 0.05 {
		t.Errorf("XSBench (%.2f) and HPCCG (%.2f) respond identically to DVFS", xsLow, hpLow)
	}
	// It refuses apps the emulation cannot run.
	if _, err := FreqSweep([]AppSpec{{Name: "XSBench", Cores: 0}}, 4); err == nil {
		t.Error("zero-core app accepted")
	}
	if _, err := FreqSweep([]AppSpec{{Name: "NoSuchApp", Cores: 1, DynMaxWPerCore: 1, PowerExp: 1}}, 4); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *RunResult {
		c, err := New(Config{Seed: 9, UseMPR: true})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(600)
		return c.Result()
	}
	a, b := run(), run()
	if a.Emergencies != b.Emergencies || a.OverloadSeconds != b.OverloadSeconds {
		t.Error("non-deterministic emulation")
	}
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Errorf("app %d differs: %+v vs %+v", i, a.Apps[i], b.Apps[i])
		}
	}
}
