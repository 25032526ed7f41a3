package sim

import (
	"math/rand"
	"testing"

	"mpr/internal/core"
	"mpr/internal/perf"
)

// scratchFixture builds a normalized config, its jobs with their static
// bids derived the way the engine derives them, and a feasible reduction
// target for direct computeReduction invocations.
func scratchFixture(t testing.TB, algo Algorithm) (*Config, []*simJob, float64) {
	cfg := Config{
		Trace:      testTrace(t, 11),
		OversubPct: 15,
		Algorithm:  algo,
		Seed:       7,
	}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	jobs := buildJobs(&cfg, rand.New(rand.NewSource(cfg.Seed)))
	if len(jobs) > 256 {
		jobs = jobs[:256]
	}
	deriveStaticBids(&cfg, jobs, new(core.CooperativeBids))
	var maxW float64
	for _, j := range jobs {
		maxW += j.part.WattsPerCore * j.part.MaxFrac * j.part.Cores
	}
	return &cfg, jobs, 0.4 * maxW
}

// TestMarketInvocationSteadyZeroAlloc is the engine-level companion of
// TestClearIntoSteadyZeroAlloc: once the scratch has reached its steady
// size, an MPR-STAT market invocation — selection, index reset, closed-
// form clear, and allocation knobs — performs zero heap allocations.
// This is what keeps the per-cell constant factor of a parallel sweep
// from being dominated by allocator traffic.
func TestMarketInvocationSteadyZeroAlloc(t *testing.T) {
	cfg, jobs, target := scratchFixture(t, AlgMPRStat)
	var s marketScratch
	if _, _, _, err := computeReduction(cfg, core.InteractiveConfig{}, jobs, target, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := computeReduction(cfg, core.InteractiveConfig{}, jobs, target, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state market invocation allocates: %v allocs/op", allocs)
	}
	// Nor does the derivation in front of it, once the scratch has seen
	// as many distinct models as a batch holds.
	allocs = testing.AllocsPerRun(10, func() {
		for _, j := range jobs {
			j.hasBid = false
		}
		deriveStaticBids(cfg, jobs, &s.coop)
	})
	if allocs != 0 {
		t.Fatalf("steady-state static-bid derivation allocates: %v allocs/op", allocs)
	}
}

// TestStaticBidsOnDemand is the count gate on static-bid derivation: a run
// derives a bid only for the jobs that enter an MPR-STAT market, once
// each, solves the cooperative bid once per distinct bid model per batch
// (per job when a cost error makes every model distinct), and files the
// bid core.CooperativeBid gives that job. A job that never entered a
// market of any algorithm holds no participant at all. Counting
// derivations and solves instead of timing runs keeps the gate
// deterministic on a loaded box.
func TestStaticBidsOnDemand(t *testing.T) {
	run := func(cfg Config) *engineState {
		t.Helper()
		st, err := newEngineState(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.run(); err != nil {
			t.Fatal(err)
		}
		if st.finish().EmergencyCount == 0 {
			t.Fatalf("%s on %s: no emergencies — not exercising the market", cfg.Algorithm, cfg.Trace.Name)
		}
		return st
	}
	// check holds every job of a finished run to the rule: a participant
	// exactly when the job was active in an emergency (admissions halt
	// while one is in force, so those are the jobs its markets selected)
	// and the algorithm selected it — a market algorithm only the jobs
	// that participate; a bid exactly when, besides, the market was
	// MPR-STAT's, and then the bid deriveStaticBids is to file.
	check := func(st *engineState) (derived int) {
		t.Helper()
		stat := st.cfg.Algorithm == AlgMPRStat
		for _, j := range st.jobs {
			entered := j.affected && st.cfg.Algorithm != AlgNone && (j.participates || !st.marketAlgo)
			if (j.part != nil) != entered {
				t.Fatalf("job %d (participates %v, affected %v): holds participant %v, want %v",
					j.id, j.participates, j.affected, j.part != nil, entered)
			}
			if want := stat && j.participates && j.affected; j.hasBid != want {
				t.Fatalf("job %d (participates %v, affected %v): hasBid = %v, want %v",
					j.id, j.participates, j.affected, j.hasBid, want)
			}
			want := core.Bid{}
			if j.hasBid {
				derived++
				want = core.CooperativeBid(float64(j.cores), j.bidModel)
				want.B *= st.cfg.StatBidFactor
			}
			if j.part != nil && j.part.Bid != want {
				t.Fatalf("job %d: bid %+v, want %+v", j.id, j.part.Bid, want)
			}
		}
		if st.bidsDerived != derived {
			t.Fatalf("bidsDerived = %d, but %d jobs hold a bid", st.bidsDerived, derived)
		}
		if st.bidSolves > derived || (derived > 0) != (st.bidSolves > 0) {
			t.Fatalf("bidSolves = %d for %d derived bids", st.bidSolves, derived)
		}
		return derived
	}
	// models counts the distinct bid-model values among the jobs that hold
	// a bid — the most solves one batch can need.
	models := func(st *engineState) int {
		seen := map[perf.CostModel]bool{}
		for _, j := range st.jobs {
			if j.hasBid {
				seen[*j.bidModel] = true
			}
		}
		return len(seen)
	}

	dense := gaiaWeek(t)
	for _, algo := range []Algorithm{AlgMPRInt, AlgOPT, AlgEQL, AlgNone} {
		st := run(Config{Trace: dense, OversubPct: 15, Algorithm: algo, Seed: 1})
		if n := check(st); n != 0 {
			t.Errorf("%s derived %d static bids, want 0", algo, n)
		}
	}

	st := run(Config{Trace: dense, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 1})
	n := check(st)
	t.Logf("dense: MPR-STAT derived %d of %d jobs' bids", n, len(st.jobs))
	if n == 0 || 2*n >= len(st.jobs) {
		t.Errorf("dense: derived %d of %d bids, want some and fewer than half (overloads are rare)", n, len(st.jobs))
	}
	// sharesSolves holds a run without cost error to the sharing rule: at
	// most one solve per distinct model per market, and far fewer solves
	// than bids.
	sharesSolves := func(name string, st *engineState, derived int) {
		t.Helper()
		m, inv := models(st), st.res.MarketInvocations
		t.Logf("%s: %d solves for %d bids (%d models, %d markets)", name, st.bidSolves, derived, m, inv)
		if st.bidSolves > m*inv || 5*st.bidSolves >= derived {
			t.Errorf("%s: %d solves for %d bids, want ≤ %d models × %d markets and < bids/5",
				name, st.bidSolves, derived, m, inv)
		}
	}
	sharesSolves("dense", st, n)

	st = run(Config{Trace: dense, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 1, CostShape: perf.CostQuadratic})
	sharesSolves("dense quadratic", st, check(st))

	// A per-job cost error draws every job its own α: nothing is shared
	// and the path is the per-job solve.
	st = run(Config{Trace: dense, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 1, CostErrorRand: 0.2})
	if n := check(st); n == 0 || st.bidSolves != n {
		t.Errorf("cost error 0.2: %d solves for %d bids, want one each", st.bidSolves, n)
	}

	st = run(Config{Trace: dense, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 1, Participation: 0.6, StatBidFactor: 1.4})
	var outside int
	for _, j := range st.jobs {
		if !j.participates && j.affected {
			outside++
		}
	}
	n = check(st)
	if n == 0 || outside == 0 {
		t.Errorf("participation 0.6: want bids derived and non-participants caught in emergencies, got %d and %d",
			st.bidsDerived, outside)
	}
	sharesSolves("participation 0.6, factor 1.4", st, n)

	st = run(sparseConfig())
	if n := check(st); n != len(st.jobs) {
		t.Errorf("sparse: derived %d of %d bids, want all (every burst breaches capacity)", n, len(st.jobs))
	}
	t.Logf("sparse: %d solves for %d bids (two new jobs per market: little to share)", st.bidSolves, st.bidsDerived)

	// A job derives once: the fixture already did, so a second pass over
	// the same jobs is free.
	cfg, jobs, _ := scratchFixture(t, AlgMPRStat)
	if n, solves := deriveStaticBids(cfg, jobs, new(core.CooperativeBids)); n != 0 || solves != 0 {
		t.Errorf("second derivation over the same jobs derived %d bids in %d solves, want 0", n, solves)
	}
}

// TestComputeReductionMatchesClear pins the scratch fast path to
// the one-shot solver it replaced: identical prices, feasibility, and
// allocation knobs, bit for bit.
func TestComputeReductionMatchesClear(t *testing.T) {
	cfg, jobs, target := scratchFixture(t, AlgMPRStat)
	var s marketScratch
	rounds, price, feasible, err := computeReduction(cfg, core.InteractiveConfig{}, jobs, target, &s)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*core.Participant, len(jobs))
	for i, j := range jobs {
		parts[i] = j.participant()
	}
	ref, err := core.Clear(parts, target)
	if err != nil {
		t.Fatal(err)
	}
	if price != ref.Price || feasible != ref.Feasible || rounds != ref.Rounds {
		t.Fatalf("scratch clear (price %v feasible %v rounds %d) != one-shot (price %v feasible %v rounds %d)",
			price, feasible, rounds, ref.Price, ref.Feasible, ref.Rounds)
	}
	for i, j := range s.sel {
		x := ref.Reductions[i] / float64(j.cores)
		if x < 0 {
			x = 0
		}
		if maxFrac := j.profile.MaxReduction(); x > maxFrac {
			x = maxFrac
		}
		if s.allocs[i] != 1-x {
			t.Fatalf("alloc[%d] = %v, want %v", i, s.allocs[i], 1-x)
		}
	}
}

// BenchmarkMarketInvocationSteady measures the engine's amortized
// per-invocation market cost (the dominant per-slot constant factor of
// an emergency-heavy sweep cell). ReportAllocs documents the zero-alloc
// steady state the test above enforces.
func BenchmarkMarketInvocationSteady(b *testing.B) {
	cfg, jobs, target := scratchFixture(b, AlgMPRStat)
	var s marketScratch
	if _, _, _, err := computeReduction(cfg, core.InteractiveConfig{}, jobs, target, &s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := computeReduction(cfg, core.InteractiveConfig{}, jobs, target, &s); err != nil {
			b.Fatal(err)
		}
	}
}
