package check

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/sim"
	"mpr/internal/telemetry"
	"mpr/internal/trace"
)

const diffSeedEngines = 0x5eed_0004

// TestDiffEngines pins sim.Run to the fixed-step reference, bit-identical
// Results over ≥ 1k adversarial configurations: every
// algorithm, bursty and sparse arrival mixes, market delays, phases,
// predictive mode, and dense sampling.
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
	t.Logf("RunFixedStep vs Run: %d instances, %d jobs, %d emergencies, %d simulated slots, %d trace spans in %v",
		st.Instances, st.Participants, st.Emergencies, st.SimSlots, st.Spans, time.Since(start))
	if st.Instances != n {
		t.Errorf("ran %d instances, want %d", st.Instances, n)
	}
	// Every emergency keeps a span, so fewer spans than emergencies
	// means the Results kept no window to compare.
	if st.Spans < st.Emergencies {
		t.Errorf("compared %d trace spans across %d emergencies — the span windows were empty", st.Spans, st.Emergencies)
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

// TestDiffEnginesEdges pins sim.Run to the fixed-step reference on one
// hand-built workload per edge of the event path, and checks that each
// workload reaches its edge: power sums that are not exact in integers,
// jobs that finish the slot after they start, and an FCFS queue that stays
// non-empty across the finishes that start its jobs.
func TestDiffEnginesEdges(t *testing.T) {
	gpuPower := map[string]power.CoreModel{}
	for _, p := range perf.GPUProfiles() {
		gpuPower[p.Name] = power.DefaultGPUCoreModel
	}
	var narrow, short, wide []trace.Job
	for i := 0; i < 40; i++ {
		narrow = append(narrow, trace.Job{ID: i + 1, Submit: int64(i/5) * 300, Runtime: int64(1800 + 97*i), Cores: 2 + i%5})
		runtime := int64(1 + i%59) // under a minute
		if i%3 == 0 {
			runtime = int64(3600 + 61*i)
		}
		short = append(short, trace.Job{ID: i + 1, Submit: int64(i/4) * 60, Runtime: runtime, Cores: 3 + i%4})
	}
	for i := 0; i < 12; i++ {
		// Two floods of wide jobs: one runs at a time, the rest queue.
		wide = append(wide, trace.Job{ID: i + 1, Submit: int64(i/6) * 900, Runtime: int64(600 + 45*i), Cores: 9 + i%7})
	}
	started := func(res *sim.Result, pred func(j sim.JobOutcome) bool) int {
		n := 0
		for _, j := range res.Jobs {
			if j.Started && pred(j) {
				n++
			}
		}
		return n
	}
	cases := []struct {
		name  string
		cfg   sim.Config
		check func(res *sim.Result) error
	}{
		{"fractional-and-gpu-watts", sim.Config{
			Trace: &trace.Trace{Name: "watts", TotalCores: 64, Jobs: narrow}, CapacityOverrideW: 6500,
			Algorithm: sim.AlgMPRStat, Seed: 3, CoreModel: power.CoreModel{StaticW: 23.7, DynamicW: 118.45},
			Profiles: perf.AllProfiles(), AppPower: gpuPower,
		}, func(res *sim.Result) error {
			if res.EmergencyCount == 0 || res.PeakW == math.Trunc(res.PeakW) {
				return fmt.Errorf("%d emergencies at a peak of %v W: want an overload at fractional watts", res.EmergencyCount, res.PeakW)
			}
			return nil
		}},
		{"sub-minute-runtimes", sim.Config{
			Trace: &trace.Trace{Name: "short", TotalCores: 32, Jobs: short}, OversubPct: 15,
			Algorithm: sim.AlgMPRInt, Seed: 5,
		}, func(res *sim.Result) error {
			if n := started(res, func(j sim.JobOutcome) bool { return j.Done && j.EndSlot == j.StartSlot+1 }); n < 10 {
				return fmt.Errorf("%d jobs finished the slot after their start, want ≥ 10", n)
			}
			return nil
		}},
		{"queued-across-finishes", sim.Config{
			Trace: &trace.Trace{Name: "wide", TotalCores: 16, Jobs: wide}, OversubPct: 10,
			Algorithm: sim.AlgMPRStat, Seed: 7,
		}, func(res *sim.Result) error {
			ends := map[int]bool{}
			for _, j := range res.Jobs {
				ends[j.EndSlot] = j.Done
			}
			if n := started(res, func(j sim.JobOutcome) bool { return j.StartSlot > j.SubmitSlot && ends[j.StartSlot] }); n < 6 {
				return fmt.Errorf("%d queued jobs started at a finish, want ≥ 6", n)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.RecordJobs = true
			tc.cfg.TraceEvents = diffTraceEvents
			res, err := runEngines(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.check(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompareEngineResultsSeesSpanAttrs holds the differential to the
// span tree: two Results that differ only in one market span's attribute
// must fail the comparison.
func TestCompareEngineResultsSeesSpanAttrs(t *testing.T) {
	var res *sim.Result
	market := -1
	for seed := int64(1); market < 0; seed++ {
		if seed > 100 {
			t.Fatal("no generated configuration cleared a market")
		}
		cfg := NewGen(seed).SimConfig()
		cfg.TraceEvents = diffTraceEvents
		r, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res = r
		market = slices.IndexFunc(r.Spans, func(s telemetry.Span) bool { return s.Name == "market" && len(s.Attrs) > 0 })
	}
	same := *res
	same.Spans = slices.Clone(res.Spans)
	if err := CompareEngineResults(res, &same); err != nil {
		t.Fatalf("a Result differs from its copy: %v", err)
	}
	other := *res
	other.Spans = slices.Clone(res.Spans)
	attrs := slices.Clone(res.Spans[market].Attrs)
	attrs[0].Value += "0"
	other.Spans[market].Attrs = attrs
	if err := CompareEngineResults(res, &other); err == nil {
		t.Fatalf("market span attribute %s changed from %q to %q, and the comparison passed",
			attrs[0].Key, res.Spans[market].Attrs[0].Value, attrs[0].Value)
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
	f.Add([]byte{0, 100, 7, 0, 120, 8, 0, 90, 6, 0, 80, 5, 250, 60, 3}, int64(1), 15.0, byte(2))
	// Steady trickle with medium strides under MPR-INT.
	f.Add([]byte{0, 40, 3, 10, 55, 4, 12, 70, 5, 9, 45, 2, 30, 65, 9}, int64(7), 25.0, byte(1))
	// Single wide job, delayed market, EQL.
	f.Add([]byte{0, 200, 15}, int64(42), 10.0, byte(19))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, oversub float64, knobs byte) {
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
			MarketDelaySlots: int(knobs>>4) % 4,
			RecordJobs:       true,
			TraceEvents:      diffTraceEvents,
		}
		if _, err := runEngines(cfg); err != nil {
			t.Fatal(err)
		}
	})
}
