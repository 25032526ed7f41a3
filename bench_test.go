package mpr

// Benchmark harness: one benchmark per table and figure of the paper
// (plus the DESIGN.md ablations and micro-benchmarks of the market hot
// path). Each experiment benchmark regenerates its table/figure via the
// shared experiment harness in quick mode; run
//
//	go test -bench=. -benchmem
//
// for timings, and `go run ./cmd/mprbench -exp all` to print the actual
// rows/series (recorded in EXPERIMENTS.md). Set MPR_BENCH_PRINT=1 to also
// print each experiment's tables from the benchmark run.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/core"
	"mpr/internal/experiments"
	"mpr/internal/perf"
)

var benchPrint = os.Getenv("MPR_BENCH_PRINT") == "1"

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches() // each iteration simulates cold, not from the last one's cache
		res, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if benchPrint && i == 0 {
			for _, tbl := range res.Tables {
				fmt.Println(tbl.String())
			}
		}
	}
}

// --- Paper tables and figures -------------------------------------------

func BenchmarkTable1_Oversubscription(b *testing.B)  { benchExperiment(b, "t1") }
func BenchmarkFig1b_UtilizationCDF(b *testing.B)     { benchExperiment(b, "f1b") }
func BenchmarkFig2_SupplyFunction(b *testing.B)      { benchExperiment(b, "f2") }
func BenchmarkFig3_XSBenchCost(b *testing.B)         { benchExperiment(b, "f3") }
func BenchmarkFig4_BiddingStrategies(b *testing.B)   { benchExperiment(b, "f4") }
func BenchmarkFig6_GaiaAllocation(b *testing.B)      { benchExperiment(b, "f6") }
func BenchmarkFig7_AppProfiles(b *testing.B)         { benchExperiment(b, "f7") }
func BenchmarkFig8_OversubImpact(b *testing.B)       { benchExperiment(b, "f8") }
func BenchmarkFig9_BenchmarkComparison(b *testing.B) { benchExperiment(b, "f9") }
func BenchmarkFig10_Scalability(b *testing.B)        { benchExperiment(b, "f10") }
func BenchmarkFig11_MarketPerformance(b *testing.B)  { benchExperiment(b, "f11") }
func BenchmarkFig12_Participation(b *testing.B)      { benchExperiment(b, "f12") }
func BenchmarkFig13_ModelError(b *testing.B)         { benchExperiment(b, "f13") }
func BenchmarkFig14_OtherTraces(b *testing.B)        { benchExperiment(b, "f14") }
func BenchmarkFig15_GPUCluster(b *testing.B)         { benchExperiment(b, "f15") }
func BenchmarkFig16_PrototypeDVFS(b *testing.B)      { benchExperiment(b, "f16") }
func BenchmarkFig17_PrototypeMPR(b *testing.B)       { benchExperiment(b, "f17") }

// --- Design ablations (DESIGN.md §4) -------------------------------------

func BenchmarkAblation_MClrSolvers(b *testing.B)   { benchExperiment(b, "a1") }
func BenchmarkAblation_CostShape(b *testing.B)     { benchExperiment(b, "a2") }
func BenchmarkAblation_BidStrategies(b *testing.B) { benchExperiment(b, "a3") }
func BenchmarkAblation_Hysteresis(b *testing.B)    { benchExperiment(b, "a4") }
func BenchmarkAblation_Predictive(b *testing.B)    { benchExperiment(b, "a5") }
func BenchmarkAblation_VCGAuction(b *testing.B)    { benchExperiment(b, "a6") }
func BenchmarkExtension_CarbonDR(b *testing.B)     { benchExperiment(b, "x1") }
func BenchmarkStudy_MarketCollusion(b *testing.B)  { benchExperiment(b, "x2") }
func BenchmarkStudy_PowerAttack(b *testing.B)      { benchExperiment(b, "x3") }
func BenchmarkStudy_Partitioned(b *testing.B)      { benchExperiment(b, "x4") }
func BenchmarkStudy_TCO(b *testing.B)              { benchExperiment(b, "x5") }
func BenchmarkStudy_PriorityCapping(b *testing.B)  { benchExperiment(b, "x6") }
func BenchmarkStudy_PowerPhases(b *testing.B)      { benchExperiment(b, "x7") }

// --- Sweep worker pool (DESIGN.md §9) ------------------------------------

// benchSweep regenerates the Fig. 8 Gaia run-matrix — the canonical sweep
// of oversubscription levels × algorithms — at the given worker-pool
// bound. Caches are reset every iteration so each run pays the full
// matrix cold, which is what the worker pool parallelizes; a warm run
// would just replay memoized cells and measure nothing.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	e, err := experiments.ByID("f8")
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Seed: 1, Quick: true, Days: 2, Parallel: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial vs BenchmarkSweepParallel is the headline number
// of the parallel sweep engine: same matrix, same tables (bit-identical,
// see TestSweepBitIdentity), worker pool bounded at 1 vs GOMAXPROCS. On
// a 4+-core machine the parallel variant should be several times faster;
// on a single-core runner the two are within noise by construction.
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// --- Market hot-path micro-benchmarks ------------------------------------

func benchPool(b testing.TB, n int) ([]*core.Participant, []core.Bidder, float64) {
	b.Helper()
	profiles := perf.CPUProfiles()
	parts := make([]*core.Participant, n)
	bidders := make([]core.Bidder, n)
	var maxW float64
	var coop core.CooperativeBids // one solve per profile, not per job: the same bids
	for i := 0; i < n; i++ {
		prof := profiles[i%len(profiles)]
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		cores := float64(8)
		parts[i] = &core.Participant{
			JobID:        fmt.Sprintf("j%d", i),
			Cores:        cores,
			Bid:          coop.Bid(cores, model),
			WattsPerCore: 125,
			MaxFrac:      prof.MaxReduction(),
			Cost:         func(d float64) float64 { return cores * model.Cost(d/cores) },
			MarginalCost: func(d float64) float64 { return model.Marginal(d / cores) },
		}
		bidders[i] = &core.RationalBidder{Cores: cores, Model: model}
	}
	for _, p := range parts {
		maxW += p.WattsPerCore * p.Bid.Delta
	}
	return parts, bidders, 0.4 * maxW
}

// benchClear measures the steady-state clear: the market index is built
// once and reused, as the sim engine and MPR-INT rounds do. Zero
// allocations per iteration.
func benchClear(b *testing.B, n int) {
	parts, _, target := benchPool(b, n)
	ix, err := core.NewMarketIndex(parts)
	if err != nil {
		b.Fatal(err)
	}
	var res core.ClearingResult
	if err := ix.ClearInto(&res, target); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.ClearInto(&res, target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClearOneShot measures the one-shot clear (validate + build +
// solve every call) under the given solver.
func benchClearOneShot(b *testing.B, n int, clear func([]*core.Participant, float64) (*core.ClearingResult, error)) {
	parts, _, target := benchPool(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clear(parts, target); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClearIntoSteadyZeroAlloc is the CI-enforced form of
// BenchmarkMarketClear1000: a steady-state re-clear must not allocate.
func TestClearIntoSteadyZeroAlloc(t *testing.T) {
	profiles := perf.CPUProfiles()
	parts := make([]*core.Participant, 256)
	var maxW float64
	for i := range parts {
		prof := profiles[i%len(profiles)]
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		parts[i] = &core.Participant{
			JobID:        fmt.Sprintf("j%d", i),
			Cores:        8,
			Bid:          core.CooperativeBid(8, model),
			WattsPerCore: 125,
			MaxFrac:      prof.MaxReduction(),
		}
		maxW += parts[i].WattsPerCore * parts[i].Bid.Delta
	}
	ix, err := core.NewMarketIndex(parts)
	if err != nil {
		t.Fatal(err)
	}
	var res core.ClearingResult
	target := 0.4 * maxW
	allocs := testing.AllocsPerRun(200, func() {
		if err := ix.ClearInto(&res, target); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ClearInto allocates: %v allocs/op", allocs)
	}
}

// --- Streaming incremental clears (DESIGN.md §10) ------------------------

// benchStreamBids precomputes, for every participant, its build-time bid
// and an alternate with the activation price doubled. Toggling between
// the two moves the participant past roughly half the pool in activation
// order — the worst case for the batch index (every update forces a full
// re-sort) and the logarithmic case for the treap.
func benchStreamBids(parts []*core.Participant) (orig, alt []core.Bid) {
	orig = make([]core.Bid, len(parts))
	alt = make([]core.Bid, len(parts))
	for i, p := range parts {
		orig[i] = p.Bid
		alt[i] = core.Bid{Delta: p.Bid.Delta, B: 2 * p.Bid.B}
	}
	return orig, alt
}

// benchStreamApply measures one streamed bid update — treap delete +
// re-insert at the new activation price + full re-clear — on a market of
// n participants. Zero allocations per update.
func benchStreamApply(b *testing.B, n int) {
	parts, _, target := benchPool(b, n)
	sm, err := core.NewStreamMarket(parts, target)
	if err != nil {
		b.Fatal(err)
	}
	orig, alt := benchStreamBids(parts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		bid := alt[j]
		if (i/n)%2 == 1 {
			bid = orig[j]
		}
		if _, _, err := sm.Apply(core.ParticipantDelta{Index: j, Bid: bid}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchUpdate is the pre-streaming cost of the same update: mutate
// one bid, re-sort the activation order, rebuild the prefix sums, and
// re-clear from scratch. The ratio against benchStreamApply is the
// headline number of the streaming engine (gated ≥100× at 100k below).
func benchBatchUpdate(b *testing.B, n int) {
	parts, _, target := benchPool(b, n)
	ix, err := core.NewMarketIndex(parts)
	if err != nil {
		b.Fatal(err)
	}
	orig, alt := benchStreamBids(parts)
	var res core.ClearingResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		bid := alt[j]
		if (i/n)%2 == 1 {
			bid = orig[j]
		}
		if err := ix.SetBid(j, bid); err != nil {
			b.Fatal(err)
		}
		ix.Refresh()
		if err := ix.ClearInto(&res, target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamBuild measures NewStreamMarket — validate, derive, order the
// slots, link the treap, clear once — which the streaming manager pays
// per market. 8 sits on the insertion-sort side of core's small-pool
// cutoff, 64, 400 (the fleets' size) and 100000 on the bucket-sort side.
func benchStreamBuild(b *testing.B, n int) {
	parts, _, target := benchSpreadPool(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewStreamMarket(parts, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamBuild8(b *testing.B)      { benchStreamBuild(b, 8) }
func BenchmarkStreamBuild64(b *testing.B)     { benchStreamBuild(b, 64) }
func BenchmarkStreamBuild400(b *testing.B)    { benchStreamBuild(b, 400) }
func BenchmarkStreamBuild100000(b *testing.B) { benchStreamBuild(b, 100000) }

// Streamed update latency vs market size — O(log M), so the three sizes
// should be within a small constant of each other.
func BenchmarkStreamApply1000(b *testing.B)    { benchStreamApply(b, 1000) }
func BenchmarkStreamApply100000(b *testing.B)  { benchStreamApply(b, 100000) }
func BenchmarkStreamApply1000000(b *testing.B) { benchStreamApply(b, 1000000) }

// The batch counterparts: O(M) per update, the other column of
// EXPERIMENTS.md's streaming table (100000 is the gated size).
func BenchmarkBatchUpdate1000(b *testing.B)    { benchBatchUpdate(b, 1000) }
func BenchmarkBatchUpdate100000(b *testing.B)  { benchBatchUpdate(b, 100000) }
func BenchmarkBatchUpdate1000000(b *testing.B) { benchBatchUpdate(b, 1000000) }

// TestStreamApplySpeedup is the CI-enforced acceptance gate of the
// streaming engine: on a 100k-participant market, a streamed
// activation-order-changing update must be at least 100× faster than the
// batch SetBid+Refresh+ClearInto path it replaces, and must not allocate.
// In practice the ratio is in the thousands (an O(log M) treap update vs
// an O(M log M) re-sort plus O(M) rebuild), so the 100× floor holds with
// a wide margin even on noisy shared runners. Both sides are timed over
// one shared pool rather than through testing.Benchmark, whose b.N ramp
// would rebuild the 100k pool several times and dominate the wall clock.
func TestStreamApplySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based gate; skipped in -short")
	}
	const n = 100000
	parts, _, target := benchPool(t, n)
	orig, alt := benchStreamBids(parts)
	pick := func(i int) core.Bid {
		if (i/n)%2 == 1 {
			return orig[i%n]
		}
		return alt[i%n]
	}

	sm, err := core.NewStreamMarket(parts, target)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	apply := func() {
		if _, _, err := sm.Apply(core.ParticipantDelta{Index: step % n, Bid: pick(step)}); err != nil {
			t.Fatal(err)
		}
		step++
	}
	if allocs := testing.AllocsPerRun(100, apply); allocs != 0 {
		t.Errorf("streamed update allocates: %v allocs/op", allocs)
	}
	const streamOps = 50000
	startStream := time.Now()
	for i := 0; i < streamOps; i++ {
		apply()
	}
	streamNs := float64(time.Since(startStream).Nanoseconds()) / streamOps

	ix, err := core.NewMarketIndex(parts)
	if err != nil {
		t.Fatal(err)
	}
	var res core.ClearingResult
	const batchOps = 200
	startBatch := time.Now()
	for i := 0; i < batchOps; i++ {
		if err := ix.SetBid(i%n, pick(i)); err != nil {
			t.Fatal(err)
		}
		ix.Refresh()
		if err := ix.ClearInto(&res, target); err != nil {
			t.Fatal(err)
		}
	}
	batchNs := float64(time.Since(startBatch).Nanoseconds()) / batchOps

	ratio := batchNs / streamNs
	t.Logf("batch %.0f ns/update, stream %.0f ns/update: %.0f× speedup", batchNs, streamNs, ratio)
	if ratio < 100 {
		t.Fatalf("streamed update only %.1f× faster than batch (want ≥100×): batch %.0f ns, stream %.0f ns",
			ratio, batchNs, streamNs)
	}
}

// TestStreamApplySteadyZeroAlloc is the top-level twin of the core
// package's zero-alloc test, wired exactly like TestClearIntoSteadyZeroAlloc:
// a streamed update plus a re-clear into a reused result must not
// allocate.
func TestStreamApplySteadyZeroAlloc(t *testing.T) {
	profiles := perf.CPUProfiles()
	parts := make([]*core.Participant, 1024)
	var maxW float64
	for i := range parts {
		prof := profiles[i%len(profiles)]
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		parts[i] = &core.Participant{
			JobID:        fmt.Sprintf("j%d", i),
			Cores:        8,
			Bid:          core.CooperativeBid(8, model),
			WattsPerCore: 125,
			MaxFrac:      prof.MaxReduction(),
		}
		maxW += parts[i].WattsPerCore * parts[i].Bid.Delta
	}
	sm, err := core.NewStreamMarket(parts, 0.4*maxW)
	if err != nil {
		t.Fatal(err)
	}
	orig, alt := benchStreamBids(parts)
	var res core.ClearingResult
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		j := n % len(parts)
		bid := alt[j]
		if (n/len(parts))%2 == 1 {
			bid = orig[j]
		}
		n++
		if _, _, err := sm.Apply(core.ParticipantDelta{Index: j, Bid: bid}); err != nil {
			t.Fatal(err)
		}
		if err := sm.ClearInto(&res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state streamed update allocates: %v allocs/op", allocs)
	}
}

// MPR-STAT clearing time vs pool size — the Fig. 10(a) hot path.
func BenchmarkMarketClear100(b *testing.B)   { benchClear(b, 100) }
func BenchmarkMarketClear1000(b *testing.B)  { benchClear(b, 1000) }
func BenchmarkMarketClear10000(b *testing.B) { benchClear(b, 10000) }
func BenchmarkMarketClear30000(b *testing.B) { benchClear(b, 30000) }

// One-shot closed-form clear (index rebuilt per call) and the bisection
// reference, for the DESIGN.md solver comparison.
func BenchmarkMarketClearFresh30000(b *testing.B) {
	benchClearOneShot(b, 30000, core.Clear)
}
func BenchmarkMarketClearBisect1000(b *testing.B) {
	benchClearOneShot(b, 1000, core.ClearBisect)
}
func BenchmarkMarketClearBisect30000(b *testing.B) {
	benchClearOneShot(b, 30000, core.ClearBisect)
}

// benchSpreadPool is benchPool with every bid replaced by the rational
// answer to a seeded price, so activation keys are (almost) all distinct
// — benchPool's cooperative bids share one key per profile, which no
// sort has to work for.
func benchSpreadPool(b testing.TB, n int) ([]*core.Participant, []core.Bidder, float64) {
	parts, bidders, target := benchPool(b, n)
	rng := rand.New(rand.NewSource(14))
	for i, p := range parts {
		p.Bid = bidders[i].RespondBid(0.05 + 0.5*rng.Float64())
	}
	return parts, bidders, target
}

// benchClearFresh measures the one-shot core.Clear — validate, build the
// index (the activation sort), solve — that the manager pays per market
// and the simulator per differently-sized invocation. 32 sits on the
// insertion-sort side of core's small-pool cutoff, 64, 128 and 400 on the
// bucket-sort side.
func benchClearFresh(b *testing.B, n int) {
	parts, _, target := benchSpreadPool(b, n)
	benchClearParts(b, parts, target)
}

func benchClearParts(b *testing.B, parts []*core.Participant, target float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Clear(parts, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClearFresh32(b *testing.B)     { benchClearFresh(b, 32) }
func BenchmarkClearFresh64(b *testing.B)     { benchClearFresh(b, 64) }
func BenchmarkClearFresh128(b *testing.B)    { benchClearFresh(b, 128) }
func BenchmarkClearFresh400(b *testing.B)    { benchClearFresh(b, 400) }
func BenchmarkClearFresh30000(b *testing.B)  { benchClearFresh(b, 30000) }
func BenchmarkClearFresh100000(b *testing.B) { benchClearFresh(b, 100000) }

// BenchmarkClearFresh30000Outlier is the activation sort's worst case:
// one bid of the 30,000 activates at 1e300, so spreading the keys' bits
// evenly over the range crowds all the others into about a hundred
// buckets, which the sort buckets again.
func BenchmarkClearFresh30000Outlier(b *testing.B) {
	parts, _, target := benchSpreadPool(b, 30000)
	p := *parts[0]
	p.Bid.B = 1e300 * p.Bid.Delta
	parts[0] = &p
	benchClearParts(b, parts, target)
}

// BenchmarkIndexRefresh16of30000 is the re-sorting Refresh: 16 of 30 000
// bids double (or halve back) their activation price between refreshes,
// the shape of an interactive round in which few bidders react.
func BenchmarkIndexRefresh16of30000(b *testing.B) {
	const n, batch = 30000, 16
	parts, _, _ := benchSpreadPool(b, n)
	ix, err := core.NewMarketIndex(parts)
	if err != nil {
		b.Fatal(err)
	}
	orig, alt := benchStreamBids(parts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batch; k++ {
			j := (i*batch + k) % n
			bid := alt[j]
			if (i*batch+k)/n%2 == 1 {
				bid = orig[j]
			}
			if err := ix.SetBid(j, bid); err != nil {
				b.Fatal(err)
			}
		}
		ix.Refresh()
	}
}

func BenchmarkMarketInteractive1000(b *testing.B) {
	parts, bidders, target := benchPool(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ClearInteractive(parts, bidders, target, core.InteractiveConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPTDual1000(b *testing.B) {
	parts, _, target := benchPool(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveOPT(parts, target, core.OPTDual); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPTGeneric1000(b *testing.B) {
	parts, _, target := benchPool(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveOPT(parts, target, core.OPTGeneric); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEQL1000(b *testing.B) {
	parts, _, target := benchPool(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveEQL(parts, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSupplyFunction(b *testing.B) {
	bid := core.Bid{Delta: 0.7, B: 0.14}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += bid.Supply(0.5)
	}
	_ = sink
}

// BenchmarkCooperativeBid times one cooperative solve: XSBench at α = 1,
// linear and quadratic, and cpu-mix, which cycles the 8 CPU profiles as
// the simulator's batches do.
func BenchmarkCooperativeBid(b *testing.B) {
	xs, err := perf.ProfileByName("XSBench")
	if err != nil {
		b.Fatal(err)
	}
	var cpuMix []*perf.CostModel
	for _, p := range perf.CPUProfiles() {
		cpuMix = append(cpuMix, perf.NewCostModel(p, 1, perf.CostLinear))
	}
	for _, c := range []struct {
		name   string
		models []*perf.CostModel
	}{
		{"xsbench-linear", []*perf.CostModel{perf.NewCostModel(xs, 1, perf.CostLinear)}},
		{"cpu-mix", cpuMix},
		{"xsbench-quadratic", []*perf.CostModel{perf.NewCostModel(xs, 1, perf.CostQuadratic)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.CooperativeBid(16, c.models[i%len(c.models)])
			}
		})
	}
}

func BenchmarkRationalBid(b *testing.B) {
	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		b.Fatal(err)
	}
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	rb := &core.RationalBidder{Cores: 16, Model: model}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.RespondBid(0.5)
	}
}

// BenchmarkJSONCodecRoundTrip is one interactive round's traffic on the
// default wire: a traced price and the answering bid, each sent and
// received through the JSON-lines codec over a bytes.Buffer.
func BenchmarkJSONCodecRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	codec := agentproto.NewCodec(&buf)
	msgs := [2]agentproto.Message{
		{Type: agentproto.MsgPrice, Round: 7, Price: 0.1, TargetW: 4000, TraceID: "m12.r7"},
		{Type: agentproto.MsgBid, Round: 7, TraceID: "m12.r7", Delta: 3.0517578125, B: 0.0732421875},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			if err := codec.Send(m); err != nil {
				b.Fatal(err)
			}
			if got, err := codec.Recv(); err != nil || got != m {
				b.Fatalf("round trip of %+v: %+v, %v", m, got, err)
			}
		}
	}
}

// BenchmarkFrameCodecRoundTrip is BenchmarkJSONCodecRoundTrip's round
// on the binary wire: the same price and bid through the mprbin/v1
// FrameCodec over a bytes.Buffer.
func BenchmarkFrameCodecRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	codec := agentproto.NewFrameCodec(&buf, &buf)
	msgs := [2]agentproto.Message{
		{Type: agentproto.MsgPrice, Round: 7, Price: 0.1, TargetW: 4000, TraceID: "m12.r7"},
		{Type: agentproto.MsgBid, Round: 7, TraceID: "m12.r7", Delta: 3.0517578125, B: 0.0732421875},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			if err := codec.Send(m); err != nil {
				b.Fatal(err)
			}
			if got, err := codec.Recv(); err != nil || got != m {
				b.Fatalf("round trip of %+v: %+v, %v", m, got, err)
			}
		}
	}
}
