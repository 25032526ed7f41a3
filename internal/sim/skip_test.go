package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mpr/internal/telemetry/tsdb"
	"mpr/internal/trace"
)

// sameResult asserts the deterministic surfaces of a RunFixedStep Result
// and a Run Result are bit-identical — the in-package smoke version of
// the exhaustive differential in internal/check.
func sameResult(t *testing.T, fixed, skip *Result) {
	t.Helper()
	type pin struct {
		name string
		a, b any
	}
	pins := []pin{
		{"Slots", fixed.Slots, skip.Slots},
		{"OverloadSlots", fixed.OverloadSlots, skip.OverloadSlots},
		{"EmergencyCount", fixed.EmergencyCount, skip.EmergencyCount},
		{"EmergencySlots", fixed.EmergencySlots, skip.EmergencySlots},
		{"InfeasibleEvents", fixed.InfeasibleEvents, skip.InfeasibleEvents},
		{"JobsCompleted", fixed.JobsCompleted, skip.JobsCompleted},
		{"JobsAffected", fixed.JobsAffected, skip.JobsAffected},
		{"ReductionCoreH", fixed.ReductionCoreH, skip.ReductionCoreH},
		{"CostCoreH", fixed.CostCoreH, skip.CostCoreH},
		{"PaymentCoreH", fixed.PaymentCoreH, skip.PaymentCoreH},
		{"ExtraCapacityCoreH", fixed.ExtraCapacityCoreH, skip.ExtraCapacityCoreH},
		{"UsedExtraCoreH", fixed.UsedExtraCoreH, skip.UsedExtraCoreH},
		{"MeanRuntimeIncrease", fixed.MeanRuntimeIncrease, skip.MeanRuntimeIncrease},
		{"MeanQueueWaitMin", fixed.MeanQueueWaitMin, skip.MeanQueueWaitMin},
		{"MarketInvocations", fixed.MarketInvocations, skip.MarketInvocations},
		{"MeanRounds", fixed.MeanRounds, skip.MeanRounds},
		{"MeanClearingPrice", fixed.MeanClearingPrice, skip.MeanClearingPrice},
		{"CapacityW", fixed.CapacityW, skip.CapacityW},
		{"PeakW", fixed.PeakW, skip.PeakW},
	}
	for _, p := range pins {
		if p.a != p.b {
			t.Errorf("%s: RunFixedStep %v vs Run %v", p.name, p.a, p.b)
		}
	}
	if !reflect.DeepEqual(fixed.PerProfile, skip.PerProfile) {
		t.Errorf("PerProfile diverged: %+v vs %+v", fixed.PerProfile, skip.PerProfile)
	}
	if !reflect.DeepEqual(fixed.Jobs, skip.Jobs) {
		for i := range fixed.Jobs {
			if i < len(skip.Jobs) && fixed.Jobs[i] != skip.Jobs[i] {
				t.Errorf("job %d diverged: %+v vs %+v", fixed.Jobs[i].ID, fixed.Jobs[i], skip.Jobs[i])
				return
			}
		}
		t.Errorf("Jobs diverged (lengths %d vs %d)", len(fixed.Jobs), len(skip.Jobs))
	}
}

// runBoth runs cfg through the fixed-step reference and through Run, with
// per-job timelines recorded.
func runBoth(t *testing.T, cfg Config) (fixed, skip *Result) {
	t.Helper()
	cfg.RecordJobs = true
	fixed, err := RunFixedStep(cfg)
	if err != nil {
		t.Fatalf("RunFixedStep: %v", err)
	}
	skip, err = Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return fixed, skip
}

// TestEngineEventMatchesSlot pins Run against the fixed-step reference
// over the regimes that decide which slots are skipped: markets with and
// without delay, predictive admission, power phases, the
// no-algorithm baseline, and arrivals out of trace order.
func TestEngineEventMatchesSlot(t *testing.T) {
	tr := testTrace(t, 3)
	// Non-zero Wait: the trace is ordered by Submit but jobs arrive at
	// Submit+Wait, so job 1 arrives last, jobs 2 and 3 share slot 5 (and
	// must be submitted in trace order — together they overfill the
	// machine, so the order decides who queues), and the gap before job 4
	// is skipped across.
	waits := &trace.Trace{Name: "waits", TotalCores: 32, Jobs: []trace.Job{
		{ID: 1, Submit: 0, Wait: 500 * 60, Runtime: 45*60 + 7, Cores: 8},
		{ID: 2, Submit: 60, Wait: 4 * 60, Runtime: 30 * 60, Cores: 20},
		{ID: 3, Submit: 120, Wait: 3 * 60, Runtime: 20*60 + 30, Cores: 16},
		{ID: 4, Submit: 180, Wait: 400 * 60, Runtime: 150 * 60, Cores: 24},
		{ID: 5, Submit: 240, Wait: 0, Runtime: 10 * 60, Cores: 4},
	}}
	cases := []struct {
		name string
		cfg  Config
		// check, when set, asserts the case exercised what it was built for.
		check func(t *testing.T, res *Result)
	}{
		{name: "mpr-stat", cfg: Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7}},
		{name: "mpr-int", cfg: Config{Trace: tr, OversubPct: 12, Algorithm: AlgMPRInt, Seed: 11}},
		{name: "none", cfg: Config{Trace: tr, OversubPct: 15, Algorithm: AlgNone, Seed: 7}},
		{name: "eql", cfg: Config{Trace: tr, OversubPct: 18, Algorithm: AlgEQL, Seed: 5}},
		{name: "delay", cfg: Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7,
			MarketDelaySlots: 3}},
		{name: "predictive", cfg: Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7,
			Predictive: true, MarketDelaySlots: 2}},
		{name: "phases", cfg: Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7,
			PhaseAmp: 0.1}},
		{name: "participation", cfg: Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 9,
			Participation: 0.6, StatBidFactor: 1.4, CostErrorRand: 0.2}},
		{name: "waits", cfg: Config{Trace: waits, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7},
			check: func(t *testing.T, res *Result) {
				var got []int
				for _, j := range res.Jobs {
					got = append(got, j.SubmitSlot)
				}
				if want := []int{500, 5, 5, 403, 4}; !reflect.DeepEqual(got, want) {
					t.Fatalf("submit slots = %v, want %v", got, want)
				}
				if res.Jobs[1].StartSlot != 5 || res.Jobs[2].StartSlot <= 5 {
					t.Fatalf("jobs sharing slot 5 started at %d and %d: want job 2 first, job 3 queued behind it",
						res.Jobs[1].StartSlot, res.Jobs[2].StartSlot)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := runBoth(t, tc.cfg)
			sameResult(t, a, b)
			if tc.check != nil {
				tc.check(t, b)
			}
		})
	}
}

// TestSeriesAcrossEngines is the sampler/slot-coupling regression: with
// per-slot sampling on, Run and RunFixedStep must emit bit-identical series —
// same virtual-slot timestamps, same values, byte-identical JSONL
// export.
func TestSeriesAcrossEngines(t *testing.T) {
	tr := testTrace(t, 5)
	cfg := Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7,
		SampleSeries: true, SeriesCapacity: 512,
	}
	a, b := runBoth(t, cfg)
	var ja, jb bytes.Buffer
	if err := tsdb.WriteJSONL(&ja, a.Series.Query(tsdb.Query{})); err != nil {
		t.Fatal(err)
	}
	if err := tsdb.WriteJSONL(&jb, b.Series.Query(tsdb.Query{})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("sampled series diverged between RunFixedStep and Run (%d vs %d bytes)", ja.Len(), jb.Len())
	}
	sameResult(t, a, b)
}

// TestSkipProgressMatchesIterated is the floating-point contract behind
// bulk skipping: skipProgress must reproduce k iterated unit decrements
// bit for bit, and finishSteps must land on the same slot at which the
// iterated loop first crosses the finish threshold.
func TestSkipProgressMatchesIterated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		var r float64
		switch i % 4 {
		case 0:
			r = rng.Float64() * 1e5
		case 1:
			r = rng.Float64() * 10
		case 2:
			r = float64(rng.Intn(10000)) / 60 // trace-shaped: seconds/60
		default:
			r = float64(rng.Intn(5)) + rng.Float64()*1e-9
		}
		k := rng.Intn(2000)
		it := r
		for s := 0; s < k; s++ {
			it -= 1.0
		}
		if got := skipProgress(r, k); got != it {
			t.Fatalf("skipProgress(%v, %d) = %v, iterated %v", r, k, got, it)
		}
		// finishSteps vs the slot loop: decrement until ≤ threshold.
		steps := 0
		for v := r; v > 1e-9 && steps < 1<<20; steps++ {
			v -= 1.0
		}
		if got := finishSteps(r); got != steps {
			t.Fatalf("finishSteps(%v) = %d, iterated %d", r, got, steps)
		}
	}
}

// TestEventSkipSteadyZeroAlloc gates the skip path: with jobs running and
// the system quiescent, the quiescence check, the finish projection, and
// the bulk replay allocate nothing.
func TestEventSkipSteadyZeroAlloc(t *testing.T) {
	jobs := make([]trace.Job, 0, 16)
	for i := 0; i < 16; i++ {
		jobs = append(jobs, trace.Job{ID: i + 1, Cores: 4, Submit: 0, Runtime: 6000000})
	}
	cfg := Config{
		Trace:     &trace.Trace{Name: "steady", TotalCores: 256, Jobs: jobs},
		Algorithm: AlgNone,
		Seed:      1,
	}
	st, err := newEngineState(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.step(0); err != nil { // admit and start everything
		t.Fatal(err)
	}
	if len(st.active) != 16 {
		t.Fatalf("active = %d, want 16", len(st.active))
	}
	slot := 1
	if allocs := testing.AllocsPerRun(500, func() {
		if next := st.quietUntil(slot); next < slot+7 {
			t.Fatalf("quietUntil(%d) = %d: expected a quiescent state", slot, next)
		}
		st.skipTo(slot, slot+7)
		slot += 7
	}); allocs != 0 {
		t.Fatalf("skip path allocates %v per cycle, want 0", allocs)
	}
}

// sparseTrace builds the sparse long-horizon workload: bursts of
// overlapping jobs separated by long idle gaps, so a fixed-step loop pays
// for every empty minute while Run jumps between bursts. Bursts overlap
// enough to breach the oversubscribed capacity, so each one also
// exercises declare → clear → lift.
func sparseTrace(bursts, burstJobs, gapSlots int, runtimeMin int64) *trace.Trace {
	jobs := make([]trace.Job, 0, bursts*burstJobs)
	id := 1
	for b := 0; b < bursts; b++ {
		submit := int64(b) * int64(gapSlots) * 60
		for i := 0; i < burstJobs; i++ {
			jobs = append(jobs, trace.Job{ID: id, Cores: 16, Submit: submit, Runtime: runtimeMin * 60})
			id++
		}
	}
	return &trace.Trace{Name: "sparse", TotalCores: 256, Jobs: jobs}
}

const (
	sparseBursts     = 60
	sparseRuntimeMin = 30
)

// sparseConfig is the skip-ahead gate's shape: few jobs and very long
// idle gaps, so the horizon is ~9M slots of which only the burst windows
// can change anything.
func sparseConfig() Config {
	return Config{
		Trace:      sparseTrace(sparseBursts, 2, 150000, sparseRuntimeMin),
		OversubPct: 15,
		Algorithm:  AlgMPRStat,
		Seed:       7,
		RecordJobs: true,
	}
}

// TestRunSkipsInertSlots is the visited-slot gate: on the sparse
// long-horizon workload the fixed-step reference steps every simulated
// slot, Run steps only the burst windows — each burst's jobs slowed by its
// emergency, plus the controller's cooldown — and both produce the
// bit-identical result. Counting steps instead of timing them keeps the
// gate deterministic on a loaded box.
func TestRunSkipsInertSlots(t *testing.T) {
	run := func(loop func(*engineState) error) (*Result, int) {
		cfg := sparseConfig()
		st, err := newEngineState(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := loop(st); err != nil {
			t.Fatal(err)
		}
		return st.finish(), st.steps
	}
	fixed, fixedSteps := run((*engineState).runFixedStep)
	skip, skipSteps := run((*engineState).run)
	sameResult(t, fixed, skip)
	if fixed.EmergencyCount == 0 {
		t.Fatal("sparse workload produced no emergencies — not exercising the market")
	}
	if fixedSteps != fixed.Slots {
		t.Errorf("RunFixedStep stepped %d of %d simulated slots, want every one", fixedSteps, fixed.Slots)
	}
	t.Logf("sparse horizon %d slots: Run stepped %d (%.0f× fewer)", skip.Slots, skipSteps, float64(fixedSteps)/float64(skipSteps))
	if limit := sparseBursts * 3 * sparseRuntimeMin; skipSteps < sparseBursts*sparseRuntimeMin || skipSteps > limit {
		t.Errorf("Run stepped %d slots, want within [%d, %d]: the %d burst windows and nothing else",
			skipSteps, sparseBursts*sparseRuntimeMin, limit, sparseBursts)
	}
}

// TestFinishProjectedPerChange is the count gate on the finish-slot cache:
// on the dense and the sparse shape Run projects a job's finish at most
// once per setAlloc (a start is one), however many slots it then steps or
// skips through. Before the cache every quietUntil past canSkipFrom
// re-projected every active job. Counting instead of timing keeps the
// gate deterministic on a loaded box.
func TestFinishProjectedPerChange(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dense", Config{Trace: gaiaWeek(t), OversubPct: 15, Algorithm: AlgMPRStat, Seed: 1}},
		{"sparse", sparseConfig()},
	} {
		st, err := newEngineState(&tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.run(); err != nil {
			t.Fatal(err)
		}
		res := st.finish()
		started := 0
		for _, j := range st.jobs {
			if j.running || j.done {
				started++
			}
		}
		t.Logf("%s: %d projections, %d jobs started, %d setAlloc calls, %d of %d slots stepped",
			tc.name, st.projections, started, st.allocSets, st.steps, res.Slots)
		if res.EmergencyCount == 0 || st.projections == 0 {
			t.Fatalf("%s: %d emergencies, %d projections — not exercising the cache", tc.name, res.EmergencyCount, st.projections)
		}
		if st.allocSets < started || st.projections > st.allocSets {
			t.Errorf("%s: %d projections for %d setAlloc calls (%d starts), want at most one per call",
				tc.name, st.projections, st.allocSets, started)
		}
	}
}

// BenchmarkEngineSparse measures Run and the fixed-step reference on the
// sparse long-horizon workload (the repo benchmark's sim_sparse row runs
// the same shape through Run).
func BenchmarkEngineSparse(b *testing.B) {
	benchLoops(b, sparseConfig())
}

// BenchmarkEngineDense measures Run and the fixed-step reference on a busy
// trace (arrivals or finishes nearly every slot) — nothing to skip, so the
// two should sit within noise of each other.
func BenchmarkEngineDense(b *testing.B) {
	tr, err := trace.Generate(trace.GenConfig{
		Name: "dense", Seed: 3, TotalCores: 256, Days: 7,
		JobCount: 1500, MeanUtil: 0.72, MaxJobFrac: 0.25,
		UtilSigma: 0.006, Revert: 0.004, DiurnalAmp: 0.08,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchLoops(b, Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7})
}

// gaiaWeek is the repo benchmark's sim_dense trace: a week of the Gaia
// preset drawn with seed 1.
func gaiaWeek(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Presets(1)["gaia"].WithDays(7))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// BenchmarkRunGaiaWeek is one lap of the repo benchmark's sim_dense
// workload — MPR-INT then MPR-STAT over gaiaWeek at 15 % oversubscription
// — reported as simulated slots per second like its sim_slots_per_s.
func BenchmarkRunGaiaWeek(b *testing.B) {
	tr := gaiaWeek(b)
	b.ReportAllocs()
	b.ResetTimer()
	slots := 0
	for i := 0; i < b.N; i++ {
		for _, algo := range []Algorithm{AlgMPRInt, AlgMPRStat} {
			res, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: algo, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			slots += res.Slots
		}
	}
	b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
}

func benchLoops(b *testing.B, cfg Config) {
	for _, l := range []struct {
		name string
		run  func(Config) (*Result, error)
	}{{"skip", Run}, {"fixed", RunFixedStep}} {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
