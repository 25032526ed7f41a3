package check

import (
	"math"
	"testing"
	"time"

	"mpr/internal/sim"
	"mpr/internal/trace"
)

const diffSeedEngines = 0x5eed_0004

// TestDiffEngines pins sim.Run to the fixed-step reference, bit-identical
// Results over ≥ 1k adversarial configurations: every
// algorithm, bursty and sparse arrival mixes, market delays, backfill,
// phases, predictive mode, and dense sampling.
func TestDiffEngines(t *testing.T) {
	start := time.Now()
	n := 1200
	if testing.Short() {
		n = 200
	}
	st, err := DiffEngines(diffSeedEngines, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RunFixedStep vs Run: %d instances, %d jobs, %d emergencies, %d simulated slots in %v",
		st.Instances, st.Participants, st.Emergencies, st.SimSlots, time.Since(start))
	if st.Instances != n {
		t.Errorf("ran %d instances, want %d", st.Instances, n)
	}
	// The generated population must actually exercise overload handling,
	// or the differential pins nothing but idle slot replay.
	if st.Emergencies == 0 {
		t.Error("no emergencies across all instances — generator not exercising overload handling")
	}
	if st.Emergencies < st.Instances/4 {
		t.Errorf("only %d emergencies across %d instances — overload coverage too thin", st.Emergencies, st.Instances)
	}
}

// fuzzSimTrace decodes fuzzer bytes into a workload as (submit-advance,
// runtime, cores) triples: zero advances pile jobs into bursts (queue
// contention, overlapping overloads), top-range advances blow up into
// multi-thousand-slot gaps (Run's skip regime), and runtimes
// land on non-minute boundaries (fractional remaining work).
func fuzzSimTrace(data []byte) (*trace.Trace, bool) {
	const totalCores = 16
	var jobs []trace.Job
	var submit int64
	for i := 0; i+2 < len(data) && len(jobs) < 24; i += 3 {
		adv := int64(data[i])
		if adv > 240 {
			adv = (adv - 240) * 1000 // sparse gap, up to 15k slots
		}
		submit += adv * 60
		jobs = append(jobs, trace.Job{
			ID:      len(jobs) + 1,
			Submit:  submit,
			Runtime: int64(data[i+1])*90 + 60,
			Cores:   int(data[i+2])%totalCores + 1,
		})
	}
	if len(jobs) == 0 {
		return nil, false
	}
	tr := &trace.Trace{Name: "fuzz-engines", TotalCores: totalCores, Jobs: jobs}
	if tr.Validate() != nil {
		return nil, false
	}
	return tr, true
}

// FuzzEngines interleaves fuzzer-shaped arrivals, finishes, and
// overloads: every mutated workload and configuration must leave sim.Run
// and the fixed-step reference bit-identical.
func FuzzEngines(f *testing.F) {
	// Burst of four jobs at slot 0 (immediate overload), then a sparse
	// straggler after a long gap.
	f.Add([]byte{0, 100, 7, 0, 120, 8, 0, 90, 6, 0, 80, 5, 250, 60, 3}, int64(1), 15.0, byte(2), false)
	// Steady trickle with medium strides under MPR-INT and backfill.
	f.Add([]byte{0, 40, 3, 10, 55, 4, 12, 70, 5, 9, 45, 2, 30, 65, 9}, int64(7), 25.0, byte(1), true)
	// Single wide job, delayed market, EQL.
	f.Add([]byte{0, 200, 15}, int64(42), 10.0, byte(19), false)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, oversub float64, knobs byte, backfill bool) {
		tr, ok := fuzzSimTrace(data)
		if !ok {
			t.Skip()
		}
		if math.IsNaN(oversub) || math.IsInf(oversub, 0) {
			t.Skip()
		}
		algs := []sim.Algorithm{sim.AlgMPRStat, sim.AlgMPRInt, sim.AlgOPT, sim.AlgEQL, sim.AlgNone}
		cfg := sim.Config{
			Trace:            tr,
			OversubPct:       math.Mod(math.Abs(oversub), 40),
			Algorithm:        algs[int(knobs)%len(algs)],
			Seed:             seed,
			Backfill:         backfill,
			MarketDelaySlots: int(knobs>>4) % 4,
			RecordJobs:       true,
		}
		fixed, err := sim.RunFixedStep(cfg)
		if err != nil {
			t.Fatalf("RunFixedStep: %v", err)
		}
		skip, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := CompareEngineResults(fixed, skip); err != nil {
			t.Fatalf("Run diverged from RunFixedStep: %v", err)
		}
	})
}
