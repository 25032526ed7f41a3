package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"

	"mpr/internal/core"
	"mpr/internal/forecast"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/sched"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/tsdb"
)

// simJob is the engine's per-job state.
type simJob struct {
	// The fields every slot reads come first. speed, allocW and finishAt
	// are pure functions of alloc and the job's progress, cached because
	// alloc changes a few times per job while the loops run every slot:
	// setAlloc is alloc's only writer and refreshes speed and allocW;
	// quietUntil fills finishAt.
	remainingMin float64
	alloc        float64 // per-core allocation knob, 1 = full speed
	speed        float64 // profile.Speed(alloc), the work done per slot
	allocW       float64 // power.JobPower(cores, alloc), the delivered draw
	fullW        float64 // power.JobPower(cores, 1), the demanded draw
	// finishAt is the slot at which step finishes the job if it runs at
	// unit speed throughout — slot + finishSteps(remainingMin) as of any
	// slot since the projection — or unprojected.
	finishAt int
	cores    int

	// id is the job's trace ID, which names it in a market and in
	// Result.Jobs; idx is its index in engineState.jobs, which keys it
	// in the scheduler and the delayed orders, so two trace jobs that
	// share an ID stay two jobs.
	id      int
	idx     int
	profile *perf.Profile
	// trueModel prices the user's actual cost; bidModel is the possibly
	// perturbed model used for bidding (Fig. 13 error studies).
	trueModel    *perf.CostModel
	bidModel     *perf.CostModel
	power        power.CoreModel
	participates bool

	// part and bidder are the job's market identities, appended by
	// pointer to each clearing invocation. Most jobs of a trace never
	// enter a market, so part stays nil until participant builds it, the
	// first time the job does. The solvers never mutate them
	// (ClearInteractive works on copies). part.Bid, the MPR-STAT bid, is
	// the exception: deriveStaticBids fills it the first time the job is
	// about to enter an MPR-STAT market and sets hasBid.
	part   *core.Participant
	bidder core.RationalBidder
	hasBid bool
	// pstats points at the job's per-profile aggregate in the Result,
	// hoisting the map lookup out of the per-slot emergency loop.
	pstats *ProfileStats

	submitSlot int
	origMin    float64

	running   bool
	done      bool
	affected  bool
	startSlot int
	endSlot   int

	// phaseOffset randomizes the job's power-phase position when
	// Config.PhaseAmp > 0.
	phaseOffset float64
}

// engineState is one run's complete mutable state, advanced by the
// per-slot transition step. Run calls step only for slots where the state
// can change and replays the provably inert ranges in bulk (skip.go);
// RunFixedStep, the tests' reference, calls it for every slot. Everything
// a slot can read or write lives here, which is what makes the two
// bit-identical by construction rather than by tolerance.
type engineState struct {
	cfg *Config
	res *Result

	tracer *telemetry.Tracer
	smp    seriesSampler

	seriesStore *tsdb.Store

	jobs []*simJob
	// arrivals is jobs in submit-slot order (same-slot jobs in trace
	// order); nextArrival indexes the first job not yet submitted.
	arrivals    []*simJob
	nextArrival int

	peakW float64
	capW  float64

	ec        *power.EmergencyController
	scheduler *sched.Scheduler
	fc        *forecast.Forecaster

	active []*simJob
	// activeCores is Σ cores over active: a start adds to it and a
	// finish subtracts. An integer sum is exact in any order, so its
	// float64 is the float sum of the job order while below 2^53.
	activeCores  int
	emergency    bool
	price        float64
	totalRounds  int
	sumPrice     float64
	baseCapCores float64

	// Delayed reduction orders (MarketDelaySlots): allocations computed
	// at declare time but applied later, keyed by simJob.idx.
	pendingAllocs  map[int]float64
	pendingApplyAt int

	// scratch is the reusable market-invocation state; the hot slot
	// loop re-clears through it without per-invocation allocations.
	scratch marketScratch

	// lastTargetW is the reduction target of the in-force emergency
	// (for the unmet-reduction series); emSpan the open emergency span.
	lastTargetW float64
	emSpan      *telemetry.ActiveSpan
	marketAlgo  bool

	horizon int
	// steps counts the slots that went through step — what a run costs,
	// as opposed to res.Slots, what it simulated.
	steps int
	// bidsDerived counts the static bids deriveStaticBids computed: the
	// distinct jobs that ever entered an MPR-STAT market. bidSolves counts
	// the per-core solves behind them: one per distinct bid model per
	// batch.
	bidsDerived int
	bidSolves   int
	// allocSets counts setAlloc calls, job starts included; projections
	// counts the finish slots quietUntil computed. Each setAlloc leaves at
	// most one projection to make, so projections ≤ allocSets.
	allocSets   int
	projections int
}

// unprojected marks a simJob.finishAt that quietUntil has yet to compute.
const unprojected = -1

// setAlloc sets j's allocation knob, refreshes the values cached from it
// and drops j's finish projection, which assumed the old speed.
func (st *engineState) setAlloc(j *simJob, a float64) {
	j.alloc = a
	j.speed = j.profile.Speed(a)
	j.allocW = j.power.JobPower(float64(j.cores), a)
	j.finishAt = unprojected
	st.allocSets++
}

// applyOrder puts a reduction order's allocation a in force on j at slot
// and moves j's expected end in the scheduler to match its new speed.
func (st *engineState) applyOrder(j *simJob, a float64, slot int) {
	st.setAlloc(j, a)
	if j.speed > 0 {
		st.scheduler.ExtendRuntime(j.idx, int64(slot)+int64(math.Ceil(j.remainingMin/j.speed)))
	}
}

// Run executes the simulation and returns its result.
func Run(cfg Config) (*Result, error) { return drive(cfg, (*engineState).run) }

// RunFixedStep is Run without skip-ahead: every slot of the horizon goes
// through step, whether or not anything can change in it. It is the
// reference the tests and internal/check hold Run to, bit for bit; nothing
// else should call it.
func RunFixedStep(cfg Config) (*Result, error) { return drive(cfg, (*engineState).runFixedStep) }

func drive(cfg Config, loop func(*engineState) error) (*Result, error) {
	st, err := newEngineState(&cfg)
	if err != nil {
		return nil, err
	}
	if err := loop(st); err != nil {
		return nil, err
	}
	return st.finish(), nil
}

// run is the simulator's loop: step the slots where something can change,
// skip the provably inert ranges between them.
func (st *engineState) run() error {
	for slot := 0; st.live(slot); {
		if next := st.quietUntil(slot); next > slot {
			st.skipTo(slot, next)
			slot = next
			continue
		}
		if err := st.step(slot); err != nil {
			return err
		}
		slot++
	}
	return nil
}

// runFixedStep is RunFixedStep's loop: step every slot.
func (st *engineState) runFixedStep() error {
	for slot := 0; st.live(slot); slot++ {
		if err := st.step(slot); err != nil {
			return err
		}
	}
	return nil
}

// live reports whether the run continues at slot: inside the horizon with
// a job still to arrive or to finish.
func (st *engineState) live(slot int) bool {
	return slot <= st.horizon && (st.nextArrival < len(st.arrivals) || len(st.active) > 0)
}

// newEngineState validates the configuration and builds the run's
// initial state: jobs, capacity, the emergency controller, the scheduler,
// observability, and the horizon.
func newEngineState(cfg *Config) (*engineState, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-run observability: a span tracer only when the run asks for a
	// retained window. Without one every span below is a nil-handle no-op.
	var tracer *telemetry.Tracer
	if cfg.TraceEvents > 0 {
		tracer = telemetry.NewTracer(cfg.TraceEvents)
	}

	// Per-slot series sampling (SampleSeries): handles resolve once here;
	// over a nil store they are all Nop, so the disabled path costs only
	// nil checks in the slot loop.
	var seriesStore *tsdb.Store
	if cfg.SampleSeries {
		seriesStore = tsdb.New(cfg.SeriesCapacity)
	}
	smp := newSeriesSampler(seriesStore)

	jobs := buildJobs(cfg, rng)
	peakW, err := peakPower(jobs)
	if err != nil {
		return nil, fmt.Errorf("sim: trace %s: %w", cfg.Trace.Name, err)
	}
	capW := power.Oversubscription{PeakW: peakW, Percent: cfg.OversubPct}.Capacity()
	if cfg.CapacityOverrideW > 0 {
		capW = cfg.CapacityOverrideW
	}

	ec, err := power.NewEmergencyController(power.EmergencyConfig{
		CapacityW:     capW,
		BufferFrac:    cfg.BufferFrac,
		CooldownSlots: cfg.CooldownSlots,
	})
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.New(cfg.Trace.TotalCores, false)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Algorithm:  cfg.Algorithm,
		TraceName:  cfg.Trace.Name,
		OversubPct: cfg.OversubPct,
		CapacityW:  capW,
		PeakW:      peakW,
		JobsTotal:  len(jobs),
		PerProfile: make(map[string]*ProfileStats),
	}
	for _, j := range jobs {
		ps := res.PerProfile[j.profile.Name]
		if ps == nil {
			ps = &ProfileStats{}
			res.PerProfile[j.profile.Name] = ps
		}
		ps.Jobs++
		j.pstats = ps
	}

	// The trace is ordered by Submit, not by Submit+Wait, so jobs can
	// reach their submit slot out of trace order; the sort is stable to
	// keep the trace order among those sharing a slot.
	arrivals := slices.Clone(jobs)
	slices.SortStableFunc(arrivals, func(a, b *simJob) int { return cmp.Compare(a.submitSlot, b.submitSlot) })

	st := &engineState{
		cfg:          cfg,
		res:          res,
		tracer:       tracer,
		smp:          smp,
		seriesStore:  seriesStore,
		jobs:         jobs,
		arrivals:     arrivals,
		peakW:        peakW,
		capW:         capW,
		ec:           ec,
		scheduler:    scheduler,
		baseCapCores: float64(cfg.Trace.TotalCores) / (1 + cfg.OversubPct/100),
		marketAlgo:   cfg.Algorithm == AlgMPRStat || cfg.Algorithm == AlgMPRInt,
		horizon:      horizon(cfg.Trace),
	}
	if cfg.Predictive {
		st.fc = forecast.New()
	}
	return st, nil
}

// step advances the simulation by one slot: the complete per-slot
// transition.
func (st *engineState) step(slot int) error {
	cfg := st.cfg
	res := st.res
	st.steps++

	// Steps 1 and 2 sum the jobs' power as they compact and append the
	// active list, unless a delayed order lands this slot or power phases
	// are on: then step 3 sums it in a pass of its own. Either way each
	// job adds its draw in active order.
	fused := cfg.PhaseAmp == 0 && !(st.pendingAllocs != nil && slot >= st.pendingApplyAt)
	var demandW, deliveredW float64

	// 1. Finish jobs that completed their work (compacting the
	// active list in place, preserving deterministic order).
	keep := st.active[:0]
	for _, j := range st.active {
		if j.remainingMin <= 1e-9 {
			j.running = false
			j.done = true
			j.endSlot = slot
			if err := st.scheduler.Finish(j.idx); err != nil {
				return err
			}
			st.activeCores -= j.cores
			res.JobsCompleted++
			continue
		}
		keep = append(keep, j)
		if fused {
			demandW += j.fullW
			deliveredW += j.allocW
		}
	}
	st.active = keep

	// 2. Admit arrivals and start queued jobs. Predictive mode adds
	// admission headroom gating: overloads in this system are mostly
	// caused by job starts — discrete power steps the manager
	// controls — so near capacity the manager defers admissions
	// until power recedes, preventing the breach instead of reacting
	// to it (the strongest form of Section III-D's early
	// invocation).
	for ; st.nextArrival < len(st.arrivals) && st.arrivals[st.nextArrival].submitSlot == slot; st.nextArrival++ {
		j := st.arrivals[st.nextArrival]
		if err := st.scheduler.Submit(sched.Request{
			ID: j.idx, Cores: j.cores, EstRuntime: int64(math.Ceil(j.origMin)),
		}); err != nil {
			return err
		}
	}
	startBudget := cfg.Trace.TotalCores
	if cfg.Predictive && st.ec.State() == power.StateNormal {
		var runDemand float64
		maxWPC := cfg.CoreModel.StaticW + cfg.CoreModel.DynamicW
		for _, j := range st.active {
			runDemand += j.fullW
			if w := j.power.StaticW + j.power.DynamicW; w > maxWPC {
				maxWPC = w
			}
		}
		headroomW := 0.99*st.capW - runDemand
		if headroomW < 0 {
			headroomW = 0
		}
		startBudget = int(headroomW / maxWPC)
	}
	for _, req := range st.scheduler.TryStartBudget(int64(slot), startBudget) {
		j := st.jobs[req.ID]
		j.running = true
		j.startSlot = slot
		st.setAlloc(j, 1)
		st.active = append(st.active, j)
		st.activeCores += j.cores
		if fused {
			demandW += j.fullW
			deliveredW += j.allocW
		}
	}

	// 3. Apply any reduction orders whose market delay has elapsed,
	// then account power.
	if st.pendingAllocs != nil && slot >= st.pendingApplyAt {
		for _, j := range st.active {
			if a, ok := st.pendingAllocs[j.idx]; ok {
				st.applyOrder(j, a, slot)
			}
		}
		st.pendingAllocs = nil
	}
	if cfg.PhaseAmp > 0 {
		// Per-job power phases modulate the dynamic component.
		omega := 2 * math.Pi / phasePeriodSlots
		for _, j := range st.active {
			factor := 1 + cfg.PhaseAmp*math.Sin(omega*float64(slot)+j.phaseOffset)
			static := float64(j.cores) * j.power.StaticW
			dyn := float64(j.cores) * j.power.DynamicW * factor
			demandW += static + dyn
			deliveredW += static + j.alloc*dyn
		}
	} else if !fused {
		for _, j := range st.active {
			demandW += j.fullW
			deliveredW += j.allocW
		}
	}

	// 4. Emergency control. In predictive mode the controller sees
	// the worst forecast over the look-ahead window, so the market
	// clears before the breach (Section III-D).
	effDemand, effDelivered := demandW, deliveredW
	if st.fc != nil {
		st.fc.Observe(demandW)
		// Forecasts drive the *declaration* only: during an active
		// emergency the measured power governs raises and lifting,
		// otherwise forecast-escalated targets block the lift
		// condition and stall admissions.
		ecState := st.ec.State()
		// Proximity gate: anticipation only matters when demand is
		// already close to the capacity — declaring from forecasts
		// far below it is all false positives (the reductions
		// stretch jobs, keep demand high, and feed back into yet
		// more emergencies).
		nearCapacity := demandW > 0.985*st.capW
		if st.fc.Ready() && nearCapacity && (ecState == power.StateNormal || ecState == power.StatePending) {
			// Anticipated demand: the point forecast, but at least a
			// 3% margin over the current draw — once the system is
			// this close to capacity, the reduction order must cover
			// the typical breach depth or the raise at the actual
			// breach pays the market delay a second time.
			fDemand := math.Max(st.fc.PredictMax(cfg.PredictHorizonSlots), 1.03*demandW)
			// Clamp: demand moves by job arrivals and phases — a few
			// percent over a few minutes — and the implied target
			// must stay within what the active jobs can possibly
			// supply, or the emergency could never meet its own lift
			// condition.
			if limit := 1.08 * demandW; fDemand > limit {
				fDemand = limit
			}
			var maxSupplyW float64
			for _, j := range st.active {
				maxSupplyW += float64(j.cores) * j.profile.MaxReduction() * j.power.DynamicW
			}
			if limit := 0.99*st.capW + 0.9*maxSupplyW; fDemand > limit {
				fDemand = limit
			}
			if fDemand > effDemand {
				effDemand = fDemand
				// Future delivered power ≈ future demand minus the
				// reduction currently in force.
				if fDeliver := fDemand - (demandW - deliveredW); fDeliver > effDelivered {
					effDelivered = fDeliver
				}
			}
		}
	}
	d := st.ec.Step(effDemand, effDelivered)
	switch {
	case d.Declare || d.Raise:
		if d.Declare {
			res.EmergencyCount++
			st.emSpan = st.tracer.StartSpan("emergency", nil)
			if st.emSpan != nil {
				st.emSpan.SetAttr("slot", strconv.Itoa(slot))
				st.emSpan.SetAttr("algo", string(cfg.Algorithm))
			}
		}
		st.emergency = true
		st.lastTargetW = d.TargetW
		st.scheduler.Halt(true)
		if cfg.Algorithm != AlgNone {
			// Static bids are derived before the market span opens, so
			// the span keeps timing the clear alone.
			if cfg.Algorithm == AlgMPRStat {
				derived, solves := deriveStaticBids(cfg, st.active, &st.scratch.coop)
				st.bidsDerived += derived
				st.bidSolves += solves
			}
			// The market runs as a child span of the emergency, under
			// the "mpr_span" pprof label so CPU profiles attribute
			// clearing work to the market (not the slot loop).
			mkSpan := st.emSpan.StartChild("market")
			ic := core.InteractiveConfig{Span: mkSpan}
			var (
				rounds     int
				clearPrice float64
				feasible   bool
				merr       error
			)
			telemetry.WithPprofLabels("market", func() {
				rounds, clearPrice, feasible, merr = computeReduction(cfg, ic, st.active, d.TargetW, &st.scratch)
			})
			if merr != nil {
				return merr
			}
			if mkSpan != nil {
				mkSpan.SetAttr("slot", strconv.Itoa(slot))
				mkSpan.SetAttr("price", strconv.FormatFloat(clearPrice, 'g', -1, 64))
				mkSpan.SetAttr("target_w", strconv.FormatFloat(d.TargetW, 'g', -1, 64))
				mkSpan.SetAttr("feasible", strconv.FormatBool(feasible))
				mkSpan.SetAttr("rounds", strconv.Itoa(rounds))
			}
			mkSpan.End()
			st.smp.sampleClear(slot, rounds)
			res.MarketInvocations++
			st.totalRounds += rounds
			st.sumPrice += clearPrice
			st.price = clearPrice
			if !feasible {
				res.InfeasibleEvents++
			}
			if cfg.MarketDelaySlots == 0 {
				// Immediate orders apply straight from the scratch
				// selection — no id-keyed map on the hot path.
				for i, j := range st.scratch.sel {
					st.applyOrder(j, st.scratch.allocs[i], slot)
				}
			} else {
				// A raise supersedes the in-flight order's content
				// but must not postpone its delivery — the
				// communication is already under way. Only this
				// delayed path materializes the id-keyed map (the
				// scratch slices are recycled next invocation).
				applyAt := slot + cfg.MarketDelaySlots
				if st.pendingAllocs != nil && st.pendingApplyAt < applyAt {
					applyAt = st.pendingApplyAt
				}
				var m map[int]float64
				if len(st.scratch.sel) > 0 {
					m = make(map[int]float64, len(st.scratch.sel))
					for i, j := range st.scratch.sel {
						m[j.idx] = st.scratch.allocs[i]
					}
				}
				st.pendingAllocs = m
				st.pendingApplyAt = applyAt
			}
		}
	case d.Lift:
		st.emergency = false
		st.price = 0
		st.lastTargetW = 0
		st.pendingAllocs = nil
		st.scheduler.Halt(false)
		for _, j := range st.active {
			st.setAlloc(j, 1)
		}
		if st.emSpan != nil {
			st.emSpan.SetAttr("lift_slot", strconv.Itoa(slot))
		}
		st.emSpan.End()
		st.emSpan = nil
	}

	// 5. Per-slot statistics and 6. progress work, in one pass over the
	// active jobs: each accumulator still adds in job order.
	if deliveredW > st.capW {
		res.OverloadSlots++
	}
	if st.emergency {
		res.EmergencySlots++
	}
	for _, j := range st.active {
		if st.emergency {
			j.affected = true
			if j.alloc < 1 {
				x := 1 - j.alloc
				deltaCores := x * float64(j.cores)
				cost := float64(j.cores) * j.trueModel.Cost(x) / 60
				pay := st.price * deltaCores / 60
				res.ReductionCoreH += deltaCores / 60
				res.CostCoreH += cost
				if st.marketAlgo {
					res.PaymentCoreH += pay
				}
				ps := j.pstats
				ps.ReductionCoreH += deltaCores / 60
				ps.CostCoreH += cost
				if st.marketAlgo {
					ps.PaymentCoreH += pay
				}
			}
		}
		j.remainingMin -= j.speed
	}
	if activeCores := float64(st.activeCores); activeCores > st.baseCapCores {
		res.UsedExtraCoreH += (activeCores - st.baseCapCores) / 60
	}
	if st.smp.enabled() {
		st.smp.sample(slot, demandW, deliveredW, st.capW, st.emergency, st.lastTargetW)
	}
	res.Slots = slot + 1
	return nil
}

// finish computes the run's final statistics and attaches observability.
func (st *engineState) finish() *Result {
	cfg, res := st.cfg, st.res
	res.ExtraCapacityCoreH = float64(cfg.Trace.TotalCores) * (cfg.OversubPct / (100 + cfg.OversubPct)) * float64(res.Slots) / 60
	var incSum float64
	var incN int
	var waitSum float64
	var waitN int
	for _, j := range st.jobs {
		if j.done && j.affected && j.origMin > 0 {
			actual := float64(j.endSlot - j.startSlot)
			incSum += (actual - j.origMin) / j.origMin
			incN++
		}
		if j.done || j.running {
			waitSum += float64(j.startSlot - j.submitSlot)
			waitN++
		}
	}
	if incN > 0 {
		res.MeanRuntimeIncrease = incSum / float64(incN)
	}
	if waitN > 0 {
		res.MeanQueueWaitMin = waitSum / float64(waitN)
	}
	for _, j := range st.jobs {
		if j.affected {
			res.JobsAffected++
		}
	}
	if res.MarketInvocations > 0 {
		res.MeanRounds = float64(st.totalRounds) / float64(res.MarketInvocations)
		res.MeanClearingPrice = st.sumPrice / float64(res.MarketInvocations)
	}
	if cfg.RecordJobs {
		res.Jobs = make([]JobOutcome, 0, len(st.jobs))
		for _, j := range st.jobs {
			res.Jobs = append(res.Jobs, JobOutcome{
				ID:           j.id,
				Cores:        j.cores,
				SubmitSlot:   j.submitSlot,
				StartSlot:    j.startSlot,
				EndSlot:      j.endSlot,
				Started:      j.running || j.done,
				Done:         j.done,
				Affected:     j.affected,
				RemainingMin: j.remainingMin,
			})
		}
	}
	// An emergency still open at the horizon closes its span here so the
	// run's span set is complete.
	st.emSpan.End()
	res.Series = st.seriesStore
	res.Spans = st.tracer.Spans()
	return res
}

// buildJobs assigns application profiles, cost models and participation
// to the trace's jobs. Participants and static bids come later, when a
// job first enters a market (participant, deriveStaticBids). The jobs and
// their cost models each live in one backing array, so a run's set-up
// allocates per slice, not per job.
func buildJobs(cfg *Config, rng *rand.Rand) []*simJob {
	n := len(cfg.Trace.Jobs)
	jobs := make([]*simJob, n)
	store := make([]simJob, n)
	models := make([]perf.CostModel, 2*n)
	for i, tj := range cfg.Trace.Jobs {
		prof := cfg.Profiles[rng.Intn(len(cfg.Profiles))]
		trueModel, bidModel := &models[2*i], &models[2*i+1]
		*trueModel = *perf.NewCostModel(prof, 1, cfg.CostShape)
		// Bidding-side cost perturbation: linear-in-α scaling captures
		// both random error and systematic underestimation.
		bidAlpha := 1.0
		if cfg.CostErrorRand > 0 {
			bidAlpha *= 1 + cfg.CostErrorRand*(2*rng.Float64()-1)
		}
		if cfg.CostErrorUnder > 0 {
			bidAlpha *= 1 - cfg.CostErrorUnder
		}
		*bidModel = *perf.NewCostModelUnchecked(prof, bidAlpha, cfg.CostShape)
		j := &store[i]
		*j = simJob{
			id:           tj.ID,
			idx:          i,
			cores:        tj.Cores,
			profile:      prof,
			trueModel:    trueModel,
			bidModel:     bidModel,
			power:        cfg.coreModelFor(prof.Name),
			participates: rng.Float64() < cfg.Participation,
			submitSlot:   int(tj.Start() / 60),
			remainingMin: float64(tj.Runtime) / 60,
			origMin:      float64(tj.Runtime) / 60,
			phaseOffset:  rng.Float64() * 2 * math.Pi,
		}
		j.fullW = j.power.JobPower(float64(j.cores), 1)
		j.bidder = core.RationalBidder{Cores: float64(j.cores), Model: j.bidModel}
		jobs[i] = j
	}
	return jobs
}

// participant returns j's market participant, building it the first time
// j enters a market.
func (j *simJob) participant() *core.Participant {
	if j.part == nil {
		j.part = &core.Participant{
			JobID:        strconv.Itoa(j.id),
			Cores:        float64(j.cores),
			WattsPerCore: j.power.DynamicW,
			MaxFrac:      j.profile.MaxReduction(),
			Cost: func(d float64) float64 {
				return float64(j.cores) * j.trueModel.Cost(d/float64(j.cores))
			},
			MarginalCost: func(d float64) float64 {
				return j.trueModel.Marginal(d / float64(j.cores))
			},
		}
	}
	return j.part
}

// deriveStaticBids gives every participating job of active that has no
// MPR-STAT bid yet its cooperative bid, scaled by cfg.StatBidFactor, and
// returns how many it derived and how many solves that took. Overloads
// are rare, so most jobs of a trace never enter a market and never get a
// bid; the bid is a pure function of (cores, bidModel), so deriving it
// late changes no result. The solve (≈ 4–6 µs for a CPU profile at α = 1
// on a 2-vCPU Xeon, linear or quadratic, BenchmarkCooperativeBid) is per
// core of a cost model, so jobs of this batch whose bid models are equal
// share one: coop
// remembers the models solved in this call and nothing from the one
// before. With a per-job cost error (CostErrorRand) no two models are
// equal and every job is solved, as it would be without coop.
//
// coop keeps nothing for the whole run, and should not: every profile's
// cost has a closed form (EE(δ) = s·δ/(1 − δ)), so the cooperative bid
// is a formula of a few ns that would replace the sampled solve and coop
// with it, leaving a run-wide memo nothing to save.
func deriveStaticBids(cfg *Config, active []*simJob, coop *core.CooperativeBids) (derived, solves int) {
	coop.Reset()
	for _, j := range active {
		if j.hasBid || !j.participates {
			continue
		}
		p := j.participant()
		p.Bid = coop.Bid(float64(j.cores), j.bidModel)
		p.Bid.B *= cfg.StatBidFactor
		j.hasBid = true
		derived++
	}
	return derived, coop.Solves()
}

// peakPower computes the workload's peak unreduced power by event sweep —
// the basis for the oversubscribed capacity (Section IV-A). Each job adds
// its draw at its submit slot and releases it ⌈runtime⌉ slots later, and
// the sweep takes the events in (slot, watts) order: releases before
// acquisitions at the same slot. An event is one uint64, its slot in the
// high bits and in the low bits the rank of its ±draw among the run's
// few distinct steps, so a plain integer sort orders them. Events equal in
// (slot, watts) are interchangeable, so the sweep adds the same sequence
// whichever order the sort leaves them in. A trace whose last slot does
// not fit beside the ranks is refused.
func peakPower(jobs []*simJob) (float64, error) {
	steps := make([]float64, 0, 2*len(jobs))
	for _, j := range jobs {
		steps = append(steps, j.fullW)
	}
	slices.Sort(steps)
	steps = slices.Compact(steps)
	for _, w := range steps {
		steps = append(steps, -w)
	}
	slices.Sort(steps)
	steps = slices.Compact(steps)
	rankBits := bits.Len(uint(len(steps) - 1))
	rank := func(w float64) uint64 {
		r, _ := slices.BinarySearch(steps, w)
		return uint64(r)
	}
	evs := make([]uint64, 0, 2*len(jobs))
	for _, j := range jobs {
		end := uint64(j.submitSlot + int(math.Ceil(j.origMin)))
		if end>>(64-rankBits) != 0 {
			return 0, fmt.Errorf("job %d ends at slot %d, too late for the power sweep", j.id, end)
		}
		evs = append(evs, uint64(j.submitSlot)<<rankBits|rank(j.fullW), end<<rankBits|rank(-j.fullW))
	}
	slices.Sort(evs)
	mask := uint64(1)<<rankBits - 1
	var cur, peak float64
	for _, e := range evs {
		cur += steps[e&mask]
		if cur > peak {
			peak = cur
		}
	}
	return peak, nil
}

// marketScratch is the engine's reusable market-invocation state: the
// participant/bidder/job selections, the per-job allocation knobs, the
// clearing result (its Reductions slice is recycled by ClearInto), and
// the long-lived market index. Once the slices reach the pool's steady
// size, an MPR-STAT invocation allocates nothing. coop is
// deriveStaticBids' per-call memory, emptied at the start of each call;
// only its storage lives here.
type marketScratch struct {
	parts   []*core.Participant
	bidders []core.Bidder
	sel     []*simJob
	allocs  []float64 // alloc knob per selected job, parallel to sel
	res     core.ClearingResult
	ix      core.MarketIndex
	coop    core.CooperativeBids
}

// computeReduction invokes the configured algorithm against the active
// jobs and leaves the per-job target allocations in s.sel/s.allocs
// (parallel slices, valid until the next invocation). Returns the
// interactive round count (1 for one-shot algorithms), the clearing
// price (0 for OPT/EQL), and feasibility. ic is MPR-INT's span.
func computeReduction(cfg *Config, ic core.InteractiveConfig, active []*simJob, targetW float64, s *marketScratch) (rounds int, price float64, feasible bool, err error) {
	marketAlgo := cfg.Algorithm == AlgMPRStat || cfg.Algorithm == AlgMPRInt

	s.parts = s.parts[:0]
	s.bidders = s.bidders[:0]
	s.sel = s.sel[:0]
	for _, j := range active {
		if marketAlgo && !j.participates {
			continue
		}
		s.parts = append(s.parts, j.participant())
		s.bidders = append(s.bidders, &j.bidder)
		s.sel = append(s.sel, j)
	}
	s.allocs = s.allocs[:0]
	if len(s.parts) == 0 {
		return 1, 0, false, nil
	}

	var reductions []float64
	switch cfg.Algorithm {
	case AlgMPRStat:
		// Reset the long-lived index over the current selection and
		// re-clear into the recycled result — the segmented solve
		// core.Clear runs, minus its per-call index and result
		// allocations.
		if err := s.ix.Reset(s.parts); err != nil {
			return 0, 0, false, err
		}
		if err := s.ix.ClearInto(&s.res, targetW); err != nil {
			return 0, 0, false, err
		}
		reductions, price, feasible, rounds = s.res.Reductions, s.res.Price, s.res.Feasible, s.res.Rounds
	case AlgMPRInt:
		r, cerr := core.ClearInteractive(s.parts, s.bidders, targetW, ic)
		if cerr != nil {
			return 0, 0, false, cerr
		}
		reductions, price, feasible, rounds = r.Reductions, r.Price, r.Feasible, r.Rounds
	case AlgOPT:
		r, cerr := core.SolveOPT(s.parts, targetW, core.OPTDual)
		if cerr != nil {
			return 0, 0, false, cerr
		}
		reductions, feasible, rounds = r.Reductions, r.Feasible, 1
	case AlgEQL:
		r, cerr := core.SolveEQL(s.parts, targetW)
		if cerr != nil {
			return 0, 0, false, cerr
		}
		reductions, feasible, rounds = r.Reductions, r.Feasible, 1
	default:
		// No algorithm: nothing selected, nothing to apply.
		s.sel = s.sel[:0]
		return 1, 0, true, nil
	}

	if cap(s.allocs) >= len(s.sel) {
		s.allocs = s.allocs[:len(s.sel)]
	} else {
		s.allocs = make([]float64, len(s.sel))
	}
	for i, j := range s.sel {
		x := reductions[i] / float64(j.cores)
		if x < 0 {
			x = 0
		}
		maxFrac := j.profile.MaxReduction()
		if x > maxFrac {
			x = maxFrac
		}
		s.allocs[i] = 1 - x
	}
	return rounds, price, feasible, nil
}
