package sim

import (
	"bytes"
	"slices"
	"testing"

	"mpr/internal/telemetry/tsdb"
)

// TestSamplerSteadyZeroAlloc is the sampling companion of
// TestMarketInvocationSteadyZeroAlloc: once the series handles are
// resolved, one per-slot sample — six ring appends — performs zero
// heap allocations, so enabling SampleSeries
// does not perturb the engine's allocation profile.
func TestSamplerSteadyZeroAlloc(t *testing.T) {
	smp := newSeriesSampler(tsdb.New(4096))
	slot := 0
	sampleOnce := func() {
		emergency := slot%7 < 3 // exercise both branches
		smp.sample(slot, 120000, 118000, 119000, emergency, 2500)
		if emergency {
			smp.sampleClear(slot, 12)
		}
		slot++
	}
	sampleOnce() // resolve any lazy state before measuring
	if allocs := testing.AllocsPerRun(200, sampleOnce); allocs != 0 {
		t.Fatalf("steady-state sample allocates: %v allocs/op", allocs)
	}
}

func TestDisabledSamplerIsNop(t *testing.T) {
	smp := newSeriesSampler(nil)
	if smp.enabled() {
		t.Fatal("nil-store sampler claims enabled")
	}
	smp.sample(0, 1, 2, 3, true, 5) // must not panic
	smp.sampleClear(0, 3)
}

// TestRunSampleSeries runs the engine with sampling on and checks the
// result's store: exactly the seven Series* names, one point per slot
// per always-sampled series, overload and emergency consistency with the
// scalar statistics, and recorded market rounds and spans for every
// emergency.
func TestRunSampleSeries(t *testing.T) {
	tr := testTrace(t, 3)
	res, err := Run(Config{
		Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7,
		SampleSeries: true, SeriesCapacity: RunSlots(tr), TraceEvents: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("SampleSeries produced no store")
	}
	var names []string
	for _, sd := range res.Series.Query(tsdb.Query{}) {
		names = append(names, sd.Name)
	}
	want := []string{
		SeriesEmergencyActive, SeriesMarketRounds, SeriesOverloadW, SeriesPowerCapacityW,
		SeriesPowerDeliveredW, SeriesPowerDemandW, SeriesReductionUnmet,
	}
	if !slices.Equal(names, want) {
		t.Fatalf("recorded series %v, want %v", names, want)
	}
	get := func(name string) []tsdb.Point {
		t.Helper()
		data := res.Series.Query(tsdb.Query{Name: name})
		if len(data) != 1 {
			t.Fatalf("%s: %d series", name, len(data))
		}
		return data[0].Points
	}
	// RunSlots(tr) keeps every sample of the run.
	demand := get(SeriesPowerDemandW)
	if len(demand) != res.Slots {
		t.Fatalf("demand points = %d, slots = %d", len(demand), res.Slots)
	}
	if demand[0].T != 0 || demand[len(demand)-1].T != int64(res.Slots-1) {
		t.Fatalf("virtual timestamps off: %d..%d", demand[0].T, demand[len(demand)-1].T)
	}
	// Capacity is constant and matches the result.
	for _, p := range get(SeriesPowerCapacityW) {
		if p.V != res.CapacityW {
			t.Fatalf("capacity sample %v != %v", p.V, res.CapacityW)
		}
	}
	// Emergency-state samples sum to the emergency slot count, and
	// positive overload samples match the overload slot count.
	var emSlots, ovSlots int
	for _, p := range get(SeriesEmergencyActive) {
		if p.V > 0 {
			emSlots++
		}
	}
	for _, p := range get(SeriesOverloadW) {
		if p.V > 0 {
			ovSlots++
		}
	}
	if emSlots != res.EmergencySlots {
		t.Errorf("emergency samples %d != EmergencySlots %d", emSlots, res.EmergencySlots)
	}
	if ovSlots != res.OverloadSlots {
		t.Errorf("overload samples %d != OverloadSlots %d", ovSlots, res.OverloadSlots)
	}
	if res.EmergencyCount == 0 {
		t.Fatal("trace produced no emergencies — series assertions vacuous")
	}
	// One market-rounds sample per market invocation.
	if rounds := get(SeriesMarketRounds); len(rounds) != res.MarketInvocations {
		t.Errorf("rounds samples %d != invocations %d", len(rounds), res.MarketInvocations)
	}
	// Spans: every emergency opens a span, and MPR-INT markets record
	// market_round children under their market span.
	var emergencies, markets, roundsSpans int
	for _, s := range res.Spans {
		switch s.Name {
		case "emergency":
			emergencies++
		case "market":
			markets++
		case "market_round":
			roundsSpans++
		}
	}
	if emergencies == 0 || markets == 0 || roundsSpans == 0 {
		t.Fatalf("span census: %d emergencies, %d markets, %d rounds", emergencies, markets, roundsSpans)
	}
}

// TestRunSampleSeriesExportDeterministic is the engine-level bit-identity
// contract: two identical runs export byte-identical JSONL.
func TestRunSampleSeriesExportDeterministic(t *testing.T) {
	tr := testTrace(t, 3)
	export := func() []byte {
		cfg := Config{
			Trace: tr, OversubPct: 15, Algorithm: AlgMPRInt, Seed: 7,
			SampleSeries: true, SeriesCapacity: 1 << 16,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tsdb.WriteJSONL(&buf, res.Series.Query(tsdb.Query{})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := export()
	if len(base) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(base, export()) {
		t.Fatal("series export differs between identical runs")
	}
}

func TestRunWithoutSampleSeriesHasNoStore(t *testing.T) {
	tr := testTrace(t, 1)
	res, err := Run(Config{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 7, TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		t.Fatal("store present without SampleSeries")
	}
	if len(res.Spans) == 0 && res.EmergencyCount > 0 {
		t.Fatal("spans must record even without series sampling")
	}
}
