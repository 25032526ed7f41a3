package check

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"

	"mpr/internal/power"
	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/telemetry/tsdb"
	"mpr/internal/trace"
)

// This file is the simulator differential: sim.Run, which skips the
// provably inert slot ranges, and the fixed-step reference
// sim.RunFixedStep must produce bit-identical Results — scalars, per-job
// timelines, trace spans, and sampled series — on
// every configuration the simulator accepts. The driver runs both over
// adversarial generated workloads and compares exactly, the same
// discipline DiffStream applies to the streaming market.

// SimTrace generates a small adversarial workload: burst submits that
// pile jobs onto one slot (queue contention, overlapping overloads),
// medium strides, and long sparse gaps (Run's skip regime),
// with core demands up to the whole machine and runtimes that are
// deliberately not whole minutes (fractional remaining work drives the
// finish-threshold float arithmetic stepping and skipping must agree on).
func (g *Gen) SimTrace() *trace.Trace {
	totalCores := 8 << g.rng.Intn(4) // 8, 16, 32, or 64
	n := 4 + g.rng.Intn(40)
	jobs := make([]trace.Job, 0, n)
	var submit int64
	for i := 0; i < n; i++ {
		switch r := g.rng.Float64(); {
		case r < 0.50:
			// Burst: same submit slot as the previous job.
		case r < 0.85:
			submit += int64(g.rng.Intn(30)) * 60
		default:
			submit += int64(g.rng.Intn(2000)) * 60 // sparse gap
		}
		runtime := int64(60 + g.rng.Intn(4*3600))
		if g.rng.Float64() < 0.3 {
			runtime = runtime / 60 * 60 // exact whole minutes
		}
		// Mostly narrow jobs: the oversubscribed capacity derives from the
		// workload's no-queueing peak, so bursts must actually fit on the
		// machine for delivered power to reach it and overload.
		cores := 1 + g.rng.Intn(max(1, totalCores/4))
		if g.rng.Float64() < 0.2 {
			cores = 1 + g.rng.Intn(totalCores)
		}
		jobs = append(jobs, trace.Job{
			ID:      i + 1,
			Submit:  submit,
			Runtime: runtime,
			Cores:   cores,
		})
	}
	return &trace.Trace{Name: "engine-diff", TotalCores: totalCores, Jobs: jobs}
}

// SimConfig draws a full simulator configuration over the generated
// trace: every algorithm, oversubscription levels that mostly force
// emergencies, market delays, participation and bid-factor
// variation, cost errors, power phases, predictive mode, and the dense
// series samplers — each a distinct code path the differential must
// pin. RecordJobs is left for the driver to set.
func (g *Gen) SimConfig() sim.Config {
	algs := []sim.Algorithm{
		sim.AlgMPRStat, sim.AlgMPRStat, sim.AlgMPRInt,
		sim.AlgOPT, sim.AlgEQL, sim.AlgNone,
	}
	cfg := sim.Config{
		Trace:     g.SimTrace(),
		Algorithm: algs[g.rng.Intn(len(algs))],
		Seed:      g.rng.Int63(),
	}
	if g.rng.Float64() < 0.15 {
		cfg.OversubPct = 5 * g.rng.Float64() // rarely overloads
	} else {
		cfg.OversubPct = 8 + 30*g.rng.Float64()
	}
	if g.rng.Float64() < 0.35 {
		// Pin the capacity below the machine's realizable full-power draw
		// so overloads occur whenever utilization climbs, independent of
		// the no-queueing peak the derived capacity is based on.
		perCore := power.DefaultCPUCoreModel.StaticW + power.DefaultCPUCoreModel.DynamicW
		cfg.CapacityOverrideW = (0.55 + 0.4*g.rng.Float64()) * perCore * float64(cfg.Trace.TotalCores)
	}
	cfg.CooldownSlots = 1 + g.rng.Intn(15)
	if g.rng.Float64() < 0.35 {
		cfg.MarketDelaySlots = 1 + g.rng.Intn(5)
	}
	if g.rng.Float64() < 0.40 {
		cfg.Participation = 0.2 + 0.8*g.rng.Float64()
	}
	if g.rng.Float64() < 0.30 {
		cfg.StatBidFactor = 0.5 + 1.5*g.rng.Float64()
	}
	if g.rng.Float64() < 0.25 {
		cfg.CostErrorRand = 0.4 * g.rng.Float64()
	}
	if g.rng.Float64() < 0.15 {
		cfg.CostErrorUnder = 0.3 * g.rng.Float64()
	}
	if g.rng.Float64() < 0.20 {
		cfg.PhaseAmp = 0.3 * g.rng.Float64()
	}
	if g.rng.Float64() < 0.15 {
		cfg.Predictive = true
	}
	if g.rng.Float64() < 0.12 {
		cfg.SampleSeries = true
		cfg.SeriesCapacity = 256
	}
	return cfg
}

// DiffEngines runs sim.RunFixedStep and sim.Run over adversarial generated
// configurations and requires bit-identical Results. The returned
// error, if any, names the reproducing instance seed; the stats report
// how much overload handling the generated population exercised.
func DiffEngines(baseSeed int64, instances int) (DiffStats, error) {
	parts, err := runner.MapN(0, instances, func(i int) (DiffStats, error) {
		seed := instanceSeed(baseSeed, i)
		g := NewGen(seed)
		var st DiffStats
		if err := diffOneEngines(g, &st); err != nil {
			return st, fmt.Errorf("check: instance seed %d (base %d, instance %d): %w", seed, baseSeed, i, err)
		}
		return st, nil
	})
	if err != nil {
		return DiffStats{}, err
	}
	return foldStats(parts), nil
}

// diffTraceEvents is the span window both runs of a differential retain.
// A Result keeps no spans by default, and CompareEngineResults would
// then compare two empty windows.
const diffTraceEvents = 1024

func diffOneEngines(g *Gen, st *DiffStats) error {
	st.Instances++
	cfg := g.SimConfig()
	cfg.RecordJobs = true
	cfg.TraceEvents = diffTraceEvents
	fixed, err := runEngines(cfg)
	if err != nil {
		return err
	}
	st.Participants += fixed.JobsTotal
	st.Emergencies += fixed.EmergencyCount
	st.SimSlots += fixed.Slots
	st.Spans += len(fixed.Spans)
	return nil
}

// runEngines runs cfg through sim.RunFixedStep and sim.Run and requires
// bit-identical Results (CompareEngineResults). It returns the
// fixed-step Result.
func runEngines(cfg sim.Config) (*sim.Result, error) {
	fixed, err := sim.RunFixedStep(cfg)
	if err != nil {
		return nil, fmt.Errorf("RunFixedStep: %v", err)
	}
	skip, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("Run: %v", err)
	}
	if err := CompareEngineResults(fixed, skip); err != nil {
		return nil, err
	}
	return fixed, nil
}

// CompareEngineResults requires a RunFixedStep Result and a Run Result
// to be bit-identical in every deterministic dimension: scalar
// statistics (floats compared by bit pattern, not tolerance),
// per-profile aggregates, per-job timelines, sampled time-series stores
// (compared on their rendered JSONL export), and trace spans in
// completion order: identity, name, parent and attributes. Span times are
// the only exclusion: they are wall-clock.
func CompareEngineResults(fixed, skip *sim.Result) error {
	ints := []struct {
		name string
		a, b int
	}{
		{"Slots", fixed.Slots, skip.Slots},
		{"OverloadSlots", fixed.OverloadSlots, skip.OverloadSlots},
		{"EmergencyCount", fixed.EmergencyCount, skip.EmergencyCount},
		{"EmergencySlots", fixed.EmergencySlots, skip.EmergencySlots},
		{"InfeasibleEvents", fixed.InfeasibleEvents, skip.InfeasibleEvents},
		{"JobsTotal", fixed.JobsTotal, skip.JobsTotal},
		{"JobsCompleted", fixed.JobsCompleted, skip.JobsCompleted},
		{"JobsAffected", fixed.JobsAffected, skip.JobsAffected},
		{"MarketInvocations", fixed.MarketInvocations, skip.MarketInvocations},
	}
	for _, f := range ints {
		if f.a != f.b {
			return fmt.Errorf("%s: RunFixedStep %d, Run %d", f.name, f.a, f.b)
		}
	}
	floats := []struct {
		name string
		a, b float64
	}{
		{"OversubPct", fixed.OversubPct, skip.OversubPct},
		{"CapacityW", fixed.CapacityW, skip.CapacityW},
		{"PeakW", fixed.PeakW, skip.PeakW},
		{"ReductionCoreH", fixed.ReductionCoreH, skip.ReductionCoreH},
		{"CostCoreH", fixed.CostCoreH, skip.CostCoreH},
		{"PaymentCoreH", fixed.PaymentCoreH, skip.PaymentCoreH},
		{"ExtraCapacityCoreH", fixed.ExtraCapacityCoreH, skip.ExtraCapacityCoreH},
		{"UsedExtraCoreH", fixed.UsedExtraCoreH, skip.UsedExtraCoreH},
		{"MeanRuntimeIncrease", fixed.MeanRuntimeIncrease, skip.MeanRuntimeIncrease},
		{"MeanQueueWaitMin", fixed.MeanQueueWaitMin, skip.MeanQueueWaitMin},
		{"MeanRounds", fixed.MeanRounds, skip.MeanRounds},
		{"MeanClearingPrice", fixed.MeanClearingPrice, skip.MeanClearingPrice},
	}
	for _, f := range floats {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Errorf("%s: RunFixedStep %v, Run %v (bits %016x vs %016x)",
				f.name, f.a, f.b, math.Float64bits(f.a), math.Float64bits(f.b))
		}
	}
	if !reflect.DeepEqual(fixed.PerProfile, skip.PerProfile) {
		return fmt.Errorf("PerProfile diverged: %+v vs %+v", fixed.PerProfile, skip.PerProfile)
	}
	if len(fixed.Jobs) != len(skip.Jobs) {
		return fmt.Errorf("Jobs length: %d vs %d", len(fixed.Jobs), len(skip.Jobs))
	}
	for i := range fixed.Jobs {
		if fixed.Jobs[i] != skip.Jobs[i] {
			return fmt.Errorf("job %d diverged: %+v vs %+v", fixed.Jobs[i].ID, fixed.Jobs[i], skip.Jobs[i])
		}
	}
	if (fixed.Series == nil) != (skip.Series == nil) {
		return fmt.Errorf("Series presence: fixed %v, skip %v", fixed.Series != nil, skip.Series != nil)
	}
	if fixed.Series != nil {
		a, err := renderSeries(fixed.Series)
		if err != nil {
			return fmt.Errorf("render fixed series: %v", err)
		}
		b, err := renderSeries(skip.Series)
		if err != nil {
			return fmt.Errorf("render skip series: %v", err)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("sampled series exports differ (%d vs %d bytes)", len(a), len(b))
		}
	}
	if len(fixed.Spans) != len(skip.Spans) {
		return fmt.Errorf("Spans length: %d vs %d", len(fixed.Spans), len(skip.Spans))
	}
	for i := range fixed.Spans {
		a, b := fixed.Spans[i], skip.Spans[i]
		if a.ID != b.ID || a.Name != b.Name || a.Parent != b.Parent || !slices.Equal(a.Attrs, b.Attrs) {
			return fmt.Errorf("span %d diverged: %+v vs %+v", i, a, b)
		}
	}
	return nil
}

// renderSeries serializes a sampled store's samples; the JSONL rendering
// covers names, timestamps, and values bit-exactly.
func renderSeries(s *tsdb.Store) ([]byte, error) {
	var buf bytes.Buffer
	if err := tsdb.WriteJSONL(&buf, s.Query(tsdb.Query{})); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
