package carbon

import (
	"fmt"
	"math"
	"math/rand"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/trace"
)

// maxReductionFrac caps how much of the dynamic power the manager buys
// back at the dirtiest hour.
const maxReductionFrac = 0.3

// Config parameterizes a carbon-aware demand-response run. Jobs draw their
// profile uniformly from perf.CPUProfiles, run on
// power.DefaultCPUCoreModel, and bid their static cooperative bids.
type Config struct {
	// Trace is the workload to replay.
	Trace *trace.Trace
	// Seed drives profile assignment.
	Seed int64
	// ThresholdG is the carbon intensity (gCO₂/kWh) above which the
	// manager buys power reduction. Default: 1.05 × the signal mean.
	ThresholdG float64
	// Signal is the grid carbon-intensity trace; one is generated from
	// Seed when nil.
	Signal *Signal
}

// Result summarizes a demand-response run.
type Result struct {
	Slots int
	// DREvents counts distinct high-carbon episodes handled.
	DREvents int
	// DRSlots counts slots with an active reduction.
	DRSlots int
	// BaselineKgCO2 is the workload's emissions without demand response;
	// SavedKgCO2 is the reduction achieved.
	BaselineKgCO2 float64
	SavedKgCO2    float64
	// EnergySavedKWh is the electricity not drawn.
	EnergySavedKWh float64
	// CostCoreH is the users' performance-loss cost and PaymentCoreH the
	// manager's incentive payoff, as in overload handling.
	CostCoreH    float64
	PaymentCoreH float64
	// MeanIntensity is the signal average over the run (gCO₂/kWh).
	MeanIntensity float64
	// ThresholdG echoes the trigger threshold used.
	ThresholdG float64
}

// RewardPercent mirrors the overload market's user-benefit metric.
func (r *Result) RewardPercent() float64 {
	if r.CostCoreH <= 0 {
		return 0
	}
	return 100 * r.PaymentCoreH / r.CostCoreH
}

type drJob struct {
	id           int
	cores        int
	profile      *perf.Profile
	model        *perf.CostModel
	staticBid    core.Bid
	remainingMin float64
	alloc        float64
}

// Run replays the trace against the carbon signal, clearing a reduction
// market whenever the grid is dirtier than the threshold. The reduction
// target scales linearly with how far the intensity exceeds the
// threshold, capped at maxReductionFrac of the current dynamic power.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil || len(cfg.Trace.Jobs) == 0 {
		return nil, fmt.Errorf("carbon: config needs a non-empty trace")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	profiles := perf.CPUProfiles()
	coreModel := power.DefaultCPUCoreModel

	// Build jobs with profile assignments and static bids.
	jobs := make([]*drJob, 0, len(cfg.Trace.Jobs))
	arrivals := map[int][]*drJob{}
	lastSlot := 0
	var coop core.CooperativeBids // one solve per profile, not per job
	for _, tj := range cfg.Trace.Jobs {
		prof := profiles[rng.Intn(len(profiles))]
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		j := &drJob{
			id:           tj.ID,
			cores:        tj.Cores,
			profile:      prof,
			model:        model,
			staticBid:    coop.Bid(float64(tj.Cores), model),
			remainingMin: float64(tj.Runtime) / 60,
			alloc:        1,
		}
		slot := int(tj.Start() / 60)
		arrivals[slot] = append(arrivals[slot], j)
		if slot > lastSlot {
			lastSlot = slot
		}
		jobs = append(jobs, j)
	}
	horizon := lastSlot + 14*24*60

	sig := cfg.Signal
	if sig == nil {
		var err error
		sig, err = NewSignal(horizon+1, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	threshold := cfg.ThresholdG
	if threshold == 0 {
		threshold = 1.05 * sig.Mean()
	}
	// The deepest excursion we scale against: intensity at the evening
	// peak minus the threshold.
	depth := sig.BaseG + sig.EveningRampG - threshold
	if depth <= 0 {
		depth = 1
	}

	res := &Result{ThresholdG: threshold, MeanIntensity: sig.Mean()}
	var active []*drJob
	inDR := false
	price := 0.0
	remaining := len(jobs)

	for slot := 0; slot <= horizon && (remaining > 0 || len(active) > 0); slot++ {
		keep := active[:0]
		for _, j := range active {
			if j.remainingMin <= 1e-9 {
				continue
			}
			keep = append(keep, j)
		}
		active = keep
		for _, j := range arrivals[slot] {
			active = append(active, j)
			remaining--
		}

		intensity := sig.IntensityAt(slot)
		var dynW float64
		for _, j := range active {
			dynW += float64(j.cores) * coreModel.DynamicW
		}

		if intensity > threshold && dynW > 0 && len(active) > 0 {
			if !inDR {
				res.DREvents++
				inDR = true
			}
			frac := maxReductionFrac * (intensity - threshold) / depth
			if frac > maxReductionFrac {
				frac = maxReductionFrac
			}
			targetW := frac * dynW
			parts := make([]*core.Participant, len(active))
			for i, j := range active {
				parts[i] = &core.Participant{
					JobID:        fmt.Sprint(j.id),
					Cores:        float64(j.cores),
					Bid:          j.staticBid,
					WattsPerCore: coreModel.DynamicW,
					MaxFrac:      j.profile.MaxReduction(),
				}
			}
			cres, err := core.Clear(parts, targetW)
			if err != nil {
				return nil, err
			}
			price = cres.Price
			for i, j := range active {
				x := cres.Reductions[i] / float64(j.cores)
				j.alloc = 1 - math.Min(x, j.profile.MaxReduction())
			}
			res.DRSlots++
		} else {
			if inDR {
				inDR = false
				price = 0
			}
			for _, j := range active {
				j.alloc = 1
			}
		}

		// Account emissions, savings, and market flows; progress work.
		for _, j := range active {
			fullW := coreModel.JobPower(float64(j.cores), 1)
			actualW := coreModel.JobPower(float64(j.cores), j.alloc)
			res.BaselineKgCO2 += fullW / 1000 * (1.0 / 60) * intensity / 1000
			savedW := fullW - actualW
			if savedW > 0 {
				res.EnergySavedKWh += savedW / 1000 / 60
				res.SavedKgCO2 += savedW / 1000 * (1.0 / 60) * intensity / 1000
				x := 1 - j.alloc
				res.CostCoreH += float64(j.cores) * j.model.Cost(x) / 60
				res.PaymentCoreH += price * x * float64(j.cores) / 60
			}
			j.remainingMin -= j.profile.Speed(j.alloc)
		}
		res.Slots = slot + 1
	}
	return res, nil
}
