package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"runtime"
	"time"

	"mpr/internal/power"
	"mpr/internal/runner"
	"mpr/internal/sched"
	"mpr/internal/sim"
	"mpr/internal/trace"
)

// simSpec is one of the two simulator workloads. Both leave
// sim.Config.Engine at its zero value, the production default.
type simSpec struct {
	name       string
	algorithms []sim.Algorithm // run serially, in this order, every lap
	// days > 0 selects the dense horizon: the seeded "gaia" preset cut to
	// that many days. Otherwise bursts selects the sparse horizon.
	days   int
	bursts int
}

func simSpecs(sc scale) map[string]simSpec {
	return map[string]simSpec{
		"sim_dense":  {name: "sim_dense", algorithms: []sim.Algorithm{sim.AlgMPRInt, sim.AlgMPRStat}, days: sc.denseDays},
		"sim_sparse": {name: "sim_sparse", algorithms: []sim.Algorithm{sim.AlgMPRStat}, bursts: sc.sparseBursts},
	}
}

const oversubPct = 15

// sparseTrace is the `mprbench -engines` shape: bursts of two 16-core
// 30-minute jobs separated by 150k-slot idle gaps on 256 cores.
func sparseTrace(bursts int) *trace.Trace {
	const gapSlots, runtimeMin = 150000, 30
	jobs := make([]trace.Job, 0, 2*bursts)
	for b := 0; b < bursts; b++ {
		for j := 0; j < 2; j++ {
			jobs = append(jobs, trace.Job{ID: len(jobs) + 1, Submit: int64(b) * gapSlots * 60, Runtime: runtimeMin * 60, Cores: 16})
		}
	}
	return &trace.Trace{Name: "sparse", TotalCores: 256, Jobs: jobs}
}

// traceSeed fixes the dense trace. The run's seed goes to sim.Config.Seed
// and draws each job's application profile, cost model and participation;
// it does not draw the trace, because from one seeded trace to the next
// the number of emergencies in a week swings fourfold and the simulator's
// speed with it, which would drown a regression.
const traceSeed = 1

func (s simSpec) buildTrace() (*trace.Trace, error) {
	if s.days > 0 {
		return trace.Generate(trace.Presets(traceSeed)["gaia"].WithDays(s.days))
	}
	return sparseTrace(s.bursts), nil
}

// simLap is one pass over the spec's algorithms.
type simLap struct {
	runS  map[sim.Algorithm]float64
	slots int
	res   map[sim.Algorithm]*sim.Result
}

func (s simSpec) lap(res *Result, rec *recorder, tr *trace.Trace, seed int64, traceEvents int) simLap {
	l := simLap{runS: map[sim.Algorithm]float64{}, res: map[sim.Algorithm]*sim.Result{}}
	for _, alg := range s.algorithms {
		start := time.Now()
		r, err := sim.Run(sim.Config{Trace: tr, OversubPct: oversubPct, Algorithm: alg, Seed: seed, TraceEvents: traceEvents})
		l.runS[alg] = time.Since(start).Seconds()
		rec.add("sim.Run."+string(alg), 0, "", start.UnixNano(), time.Now().UnixNano())
		if err != nil {
			res.op(fmt.Sprintf("sim.Run %s: %v", alg, err))
			continue
		}
		problem := ""
		if r.JobsCompleted == 0 || r.Slots == 0 {
			problem = fmt.Sprintf("sim.Run %s completed %d jobs in %d slots", alg, r.JobsCompleted, r.Slots)
		}
		res.op(problem)
		l.slots += r.Slots
		l.res[alg] = r
		key := s.name + "." + string(alg)
		res.fact(key+".slots", float64(r.Slots))
		res.fact(key+".jobs_completed", float64(r.JobsCompleted))
		res.fact(key+".market_invocations", float64(r.MarketInvocations))
		res.fact(key+".emergencies", float64(r.EmergencyCount))
		res.fact(key+".mean_rounds", r.MeanRounds)
		res.fact("price."+key+".mean_clearing", r.MeanClearingPrice)
	}
	return l
}

func (l simLap) total() float64 {
	t := 0.0
	for _, s := range l.runS {
		t += s
	}
	return t
}

// simSection is a simulator workload between set-up and report.
type simSection struct {
	res    *Result
	rec    *recorder
	spec   simSpec
	tr     *trace.Trace
	setups []float64
	laps   []simLap
}

// setUp builds the trace and records how long that took.
func (s *simSection) setUp() error {
	start := time.Now()
	tr, err := s.spec.buildTrace()
	if err != nil {
		return err
	}
	s.tr = tr
	s.setups = append(s.setups, time.Since(start).Seconds())
	s.rec.add("trace.build", 0, "", start.UnixNano(), time.Now().UnixNano())
	return nil
}

func openSim(spec simSpec, seed int64, traced bool) (*simSection, error) {
	s := &simSection{res: newResult(spec.name, seed, traced), spec: spec}
	if traced {
		s.rec = &recorder{}
	}
	if err := s.setUp(); err != nil {
		return nil, err
	}
	s.res.fact(spec.name+".trace_jobs", float64(len(s.tr.Jobs)))
	return s, nil
}

// measure runs laps for seconds more, and two at least in all. The
// simulator keeps its own span ring, sized by TraceEvents; the traced
// pass grows it on every other lap so that no market span is evicted.
// The laps between run with the default and are the base of the tracing
// overhead.
func (s *simSection) measure(seconds float64) {
	// The trace is built again first, so that setup_s samples the whole
	// run as the other metrics do; every build gives the same trace.
	if err := s.setUp(); err != nil {
		s.res.fail(fmt.Sprintf("set-up: %v", err))
		return
	}
	const tracedEvents = 1 << 18
	for elapsed := 0.0; (elapsed < seconds || len(s.laps) < 2) && s.res.Failed == 0; {
		events := 0
		if s.res.Traced && len(s.laps)%2 == 1 {
			events = tracedEvents
		}
		l := s.spec.lap(s.res, s.rec, s.tr, s.res.Seed, events)
		s.laps = append(s.laps, l)
		elapsed += l.total()
	}
}

func (s *simSection) close() {}

func (s *simSection) finish() (*Result, error) {
	res, spec, laps, tr := s.res, s.spec, s.laps, s.tr
	if res.Failed > 0 {
		return res, nil
	}
	if !res.Traced {
		// Σ slots ÷ Σ host time over the lap's runs, each run's time the
		// median of that algorithm's runs.
		byAlg := make([][]float64, len(spec.algorithms))
		for i, alg := range spec.algorithms {
			for _, l := range laps {
				byAlg[i] = append(byAlg[i], l.runS[alg])
			}
		}
		res.add(
			Metric{Name: "setup_s", Value: median(s.setups), Unit: "s", N: len(s.setups)},
			Metric{Name: "sim_slots_per_s", Value: float64(laps[0].slots) / medianSum(byAlg), Unit: "1/s", N: len(laps) * len(spec.algorithms)},
		)
		return res, nil
	}

	var lapS, plainLapS, usPerSlot []float64
	runS := map[sim.Algorithm][]float64{}
	var last simLap
	for i, l := range laps {
		if i%2 == 0 {
			plainLapS = append(plainLapS, l.total())
			continue
		}
		last = l
		lapS = append(lapS, l.total())
		usPerSlot = append(usPerSlot, l.total()*1e6/float64(l.slots))
		for alg, s := range l.runS {
			runS[alg] = append(runS[alg], s)
		}
	}
	// The statistics below are read off the last algorithm of the lap
	// (MPR-STAT on both workloads), except the rounds per market, which
	// only the first (MPR-INT on the dense one) iterates; the facts pin
	// every algorithm.
	alg := spec.algorithms[len(spec.algorithms)-1]
	r := last.res[alg]
	busy, marketSpans := 0.0, 0
	for _, s := range r.Spans {
		if s.Name == "market" {
			busy += s.Duration().Seconds()
			marketSpans++
		}
	}
	if marketSpans != r.MarketInvocations {
		res.fail(fmt.Sprintf("%d market spans for %d market invocations: the span ring dropped some", marketSpans, r.MarketInvocations))
	}
	res.add(
		timing("sim.run_int_s", "s", runS[sim.AlgMPRInt], 1),
		timing("sim.run_stat_s", "s", runS[sim.AlgMPRStat], 1),
		timing("sim.host_us_per_slot", "us", usPerSlot, 1),
		scalar("sim.slots", "count", float64(r.Slots)),
		scalar("sim.market_invocations", "count", float64(r.MarketInvocations)),
		scalar("sim.mean_rounds", "count", last.res[spec.algorithms[0]].MeanRounds),
		scalar("sim.emergencies", "count", float64(r.EmergencyCount)),
		scalar("sim.jobs_completed", "count", float64(r.JobsCompleted)),
		Metric{Name: "sim.market_busy_s", Value: busy, Unit: "s", N: marketSpans},
		scalar("sim.market_share", "frac", busy/last.runS[alg]),
		scalar("telemetry.trace_overhead_frac.sim", "frac", (median(lapS)-median(plainLapS))/median(plainLapS)),
	)

	// Sampler cost: the per-slot series sampler on against off, over the
	// first eighth of the trace — on the sparse horizon the sampler pins
	// the run to every slot, and the whole trace would take a minute.
	probe := &trace.Trace{Name: tr.Name, TotalCores: tr.TotalCores, Jobs: tr.Jobs[:max(len(tr.Jobs)/8, 2)]}
	var sampleS [2]float64
	for i, on := range []bool{false, true} {
		start := time.Now()
		if _, err := sim.Run(sim.Config{Trace: probe, OversubPct: oversubPct, Algorithm: alg, Seed: s.res.Seed, SampleSeries: on}); err != nil {
			return nil, err
		}
		sampleS[i] = time.Since(start).Seconds()
	}
	res.add(scalar("sim.sampler_overhead_frac", "frac", (sampleS[1]-sampleS[0])/sampleS[0]))

	ms, err := simLayerMetrics(spec, tr, s.res.Seed, s.setups, median(lapS))
	if err != nil {
		return nil, err
	}
	res.add(ms...)
	res.Spans = s.rec.spans
	return res, nil
}

// simLayerMetrics measures the layers under the simulator on the
// workload's trace: building and SWF parsing, a scheduler-only replay,
// the emergency controller alone, and the lap's runs through runner.Map.
func simLayerMetrics(spec simSpec, tr *trace.Trace, seed int64, generateS []float64, serialLapS float64) ([]Metric, error) {
	var swf bytes.Buffer
	if err := trace.WriteSWF(&swf, tr); err != nil {
		return nil, err
	}
	size := float64(swf.Len())
	start := time.Now()
	parsed, err := trace.ParseSWF(&swf, tr.Name)
	parseS := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if len(parsed.Jobs) != len(tr.Jobs) {
		return nil, fmt.Errorf("SWF round trip kept %d of %d jobs", len(parsed.Jobs), len(tr.Jobs))
	}

	start = time.Now()
	if err := replaySchedule(tr); err != nil {
		return nil, err
	}
	replayS := time.Since(start).Seconds()

	ec, err := power.NewEmergencyController(power.EmergencyConfig{CapacityW: 100e3})
	if err != nil {
		return nil, err
	}
	const steps = 2_000_000
	start = time.Now()
	for i := 0; i < steps; i++ {
		// A sawtooth that crosses the capacity every few hundred slots.
		demand := 90e3 + 50*float64(i%300)
		ec.Step(demand, demand)
	}
	stepS := time.Since(start).Seconds()

	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	_, err = runner.Map(workers, spec.algorithms, func(_ int, alg sim.Algorithm) (*sim.Result, error) {
		return sim.Run(sim.Config{Trace: tr, OversubPct: oversubPct, Algorithm: alg, Seed: seed})
	})
	parallelS := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	speedup := serialLapS / parallelS
	usable := float64(min(workers, len(spec.algorithms)))

	return []Metric{
		timing("trace.generate_s", "s", generateS, 1),
		scalar("trace.jobs", "count", float64(len(tr.Jobs))),
		scalar("trace.swf_parse_mb_per_s", "MB/s", size/1e6/parseS),
		Metric{Name: "sched.replay_us_per_job", Value: replayS * 1e6 / float64(len(tr.Jobs)), Unit: "us", N: len(tr.Jobs)},
		Metric{Name: "power.step_ns", Value: stepS * 1e9 / steps, Unit: "ns", N: steps},
		scalar("runner.speedup", "x", speedup),
		scalar("runner.parallel_eff", "frac", speedup/usable),
	}, nil
}

// jobEnd is a running job's completion; endHeap orders them by time.
type jobEnd struct {
	end int64
	id  int
}

type endHeap []jobEnd

func (h endHeap) Len() int { return len(h) }
func (h endHeap) Less(i, j int) bool {
	return h[i].end < h[j].end || h[i].end == h[j].end && h[i].id < h[j].id
}
func (h endHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)   { *h = append(*h, x.(jobEnd)) }
func (h *endHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// replaySchedule drives the trace through the FCFS scheduler alone —
// Submit, TryStart, Finish, no power — which bounds from below what a
// simulated slot can cost.
func replaySchedule(tr *trace.Trace) error {
	s, err := sched.New(tr.TotalCores, false)
	if err != nil {
		return err
	}
	runtimeOf := make(map[int]int64, len(tr.Jobs))
	var ends endHeap
	next, started := 0, 0
	for next < len(tr.Jobs) || ends.Len() > 0 {
		now := int64(0)
		switch {
		case ends.Len() == 0:
			now = tr.Jobs[next].Submit
		case next == len(tr.Jobs) || ends[0].end <= tr.Jobs[next].Submit:
			now = ends[0].end
		default:
			now = tr.Jobs[next].Submit
		}
		for ends.Len() > 0 && ends[0].end <= now {
			if err := s.Finish(heap.Pop(&ends).(jobEnd).id); err != nil {
				return err
			}
		}
		for ; next < len(tr.Jobs) && tr.Jobs[next].Submit <= now; next++ {
			j := tr.Jobs[next]
			runtimeOf[j.ID] = j.Runtime
			if err := s.Submit(sched.Request{ID: j.ID, Cores: j.Cores, EstRuntime: j.Runtime}); err != nil {
				return err
			}
		}
		for _, r := range s.TryStart(now) {
			heap.Push(&ends, jobEnd{now + runtimeOf[r.ID], r.ID})
			started++
		}
	}
	if started != len(tr.Jobs) {
		return fmt.Errorf("scheduler replay started %d of %d jobs", started, len(tr.Jobs))
	}
	return nil
}
