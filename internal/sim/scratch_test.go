package sim

import (
	"math/rand"
	"testing"

	"mpr/internal/core"
	"mpr/internal/telemetry"
)

// scratchFixture builds a normalized config, its jobs, and a feasible
// reduction target for direct computeReduction invocations.
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
	if _, _, _, err := computeReduction(cfg, jobs, target, &s); err != nil {
		t.Fatal(err)
	}
	core.Instrument(telemetry.Nop())
	defer core.Instrument(telemetry.Default())
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := computeReduction(cfg, jobs, target, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state market invocation allocates: %v allocs/op", allocs)
	}
}

// TestComputeReductionMatchesClear pins the scratch fast path to
// the one-shot solver it replaced: identical prices, feasibility, and
// allocation knobs, bit for bit.
func TestComputeReductionMatchesClear(t *testing.T) {
	cfg, jobs, target := scratchFixture(t, AlgMPRStat)
	var s marketScratch
	rounds, price, feasible, err := computeReduction(cfg, jobs, target, &s)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*core.Participant, len(jobs))
	for i, j := range jobs {
		parts[i] = j.part
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
	if _, _, _, err := computeReduction(cfg, jobs, target, &s); err != nil {
		b.Fatal(err)
	}
	core.Instrument(telemetry.Nop())
	defer core.Instrument(telemetry.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := computeReduction(cfg, jobs, target, &s); err != nil {
			b.Fatal(err)
		}
	}
}
