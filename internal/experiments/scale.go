package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/runner"
	"mpr/internal/stats"
	"mpr/internal/telemetry"
)

func init() {
	register("f10", "Fig. 10: solution time and iterations vs active jobs", runFig10)
}

// syntheticPool builds n market participants with random application
// profiles and core counts — the varying-active-jobs instances of the
// scalability study.
func syntheticPool(n int, seed int64) ([]*core.Participant, []core.Bidder) {
	rng := rand.New(rand.NewSource(seed))
	profiles := perf.CPUProfiles()
	parts := make([]*core.Participant, n)
	bidders := make([]core.Bidder, n)
	var coop core.CooperativeBids // one solve per profile, not per job
	for i := 0; i < n; i++ {
		prof := profiles[rng.Intn(len(profiles))]
		cores := float64(int(1) << rng.Intn(6))
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		c := cores
		parts[i] = &core.Participant{
			JobID:        fmt.Sprintf("job%d", i),
			Cores:        cores,
			Bid:          coop.Bid(cores, model),
			WattsPerCore: 125,
			MaxFrac:      prof.MaxReduction(),
			Cost:         func(d float64) float64 { return c * model.Cost(d/c) },
			MarginalCost: func(d float64) float64 { return model.Marginal(d / c) },
		}
		bidders[i] = &core.RationalBidder{Cores: cores, Model: model}
	}
	return parts, bidders
}

// pool is one prebuilt synthetic participant pool of a timing study.
type pool struct {
	parts   []*core.Participant
	bidders []core.Bidder
}

// buildPools constructs the synthetic pools for the given sizes on the
// options' worker pool. Timing experiments (f10, a1, a6) prebuild their
// pools here so only the *untimed* construction parallelizes; the timed
// solver sections stay serial (DESIGN.md §9).
func buildPools(o Options, sizes []int) ([]pool, error) {
	return runner.Map(o.workers(), sizes, func(_ int, n int) (pool, error) {
		parts, bidders := syntheticPool(n, o.seed())
		return pool{parts, bidders}, nil
	})
}

func poolTarget(parts []*core.Participant) float64 {
	var maxW float64
	for _, p := range parts {
		maxW += p.WattsPerCore * p.MaxFrac * p.Cores
	}
	return 0.4 * maxW
}

func runFig10(o Options) (*Result, error) {
	sizes := []int{10, 100, 1000, 10000, 30000}
	if o.Quick {
		sizes = []int{10, 100, 1000, 3000}
	}
	// The paper charges 500 ms of communication per MPR-INT round.
	const commPerRound = 500 * time.Millisecond

	timeTbl := stats.NewTable("Fig. 10(a) — solution time vs number of active jobs",
		"jobs", "MPR-STAT (ms)", "EQL (ms)", "OPT generic (ms)", "OPT dual (ms)",
		"MPR-INT compute (ms)", "MPR-INT with comm (s)",
		"MPR-STAT bisect (ms)", "indexed clear (µs)")
	iterTbl := stats.NewTable("Fig. 10(b) — MPR-INT iterations to clear",
		"jobs", "rounds", "converged")
	convTbl := stats.NewTable("Fig. 10(b) inset — MPR-INT convergence trajectory (largest pool)",
		"round", "announced price", "cleared price", "supplied (W)", "price error (%)")

	// The per-round price trajectory is recorded as the market_round
	// spans of the largest pool's market and read back from the tracer.
	tracer := telemetry.NewTracer(256)
	largest := sizes[len(sizes)-1]

	// Pool construction fans out; the timed sections below stay serial.
	pools, err := buildPools(o, sizes)
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		parts, bidders := pools[pi].parts, pools[pi].bidders
		target := poolTarget(parts)

		t0 := time.Now()
		if _, err := core.Clear(parts, target); err != nil {
			return nil, err
		}
		statMS := time.Since(t0).Seconds() * 1000

		// Solver comparison: the paper's bisection search and the amortized
		// indexed clear (index built once, then reused — the steady-state
		// cost inside the sim engine and the MPR-INT rounds).
		t0 = time.Now()
		if _, err := core.ClearBisect(parts, target); err != nil {
			return nil, err
		}
		bisectMS := time.Since(t0).Seconds() * 1000

		ix, err := core.NewMarketIndex(parts)
		if err != nil {
			return nil, err
		}
		var warm core.ClearingResult
		if err := ix.ClearInto(&warm, target); err != nil {
			return nil, err
		}
		const reclears = 100
		t0 = time.Now()
		for r := 0; r < reclears; r++ {
			if err := ix.ClearInto(&warm, target); err != nil {
				return nil, err
			}
		}
		indexedUS := time.Since(t0).Seconds() * 1e6 / reclears

		t0 = time.Now()
		if _, err := core.SolveEQL(parts, target); err != nil {
			return nil, err
		}
		eqlMS := time.Since(t0).Seconds() * 1000

		t0 = time.Now()
		if _, err := core.SolveOPT(parts, target, core.OPTGeneric); err != nil {
			return nil, err
		}
		optMS := time.Since(t0).Seconds() * 1000

		t0 = time.Now()
		if _, err := core.SolveOPT(parts, target, core.OPTDual); err != nil {
			return nil, err
		}
		dualMS := time.Since(t0).Seconds() * 1000

		intCfg := core.InteractiveConfig{}
		if n == largest {
			intCfg.Span = tracer.StartSpan("market", nil)
		}
		t0 = time.Now()
		intRes, err := core.ClearInteractive(parts, bidders, target, intCfg)
		intCfg.Span.End()
		if err != nil {
			return nil, err
		}
		intMS := time.Since(t0).Seconds() * 1000

		if n == largest {
			if err := addConvergenceRows(convTbl, tracer.Spans(), intCfg.Span.ID(), intRes.Price); err != nil {
				return nil, err
			}
		}
		intTotal := time.Duration(intMS*float64(time.Millisecond)) + time.Duration(intRes.Rounds)*commPerRound

		timeTbl.AddRow(n, statMS, eqlMS, optMS, dualMS, intMS, intTotal.Seconds(),
			bisectMS, indexedUS)
		iterTbl.AddRow(n, intRes.Rounds, intRes.Converged)
	}
	return &Result{ID: "f10", Title: "Fig. 10", Tables: []*stats.Table{timeTbl, iterTbl, convTbl},
		Notes: []string{
			"MPR-INT total time charges 500 ms of communication per round, as in the paper",
			"MPR-STAT uses the closed-form segmented solver; 'MPR-STAT bisect' is the legacy bisection search and 'indexed clear' the per-clear cost once the market index is built (amortized over 100 re-clears)",
			"the convergence trajectory is read back from the market's per-round market_round spans; price error is the cleared price's deviation from the final (Nash) price",
		}}, nil
}

// addConvergenceRows adds one row per "market_round" child of the market
// span: the round's announced and cleared prices and supply, parsed from
// its attributes, and the cleared price's error against final.
func addConvergenceRows(tbl *stats.Table, spans []telemetry.Span, market uint64, final float64) error {
	round := 0
	for _, s := range spans {
		if s.Name != "market_round" || s.Parent != market {
			continue
		}
		var v [3]float64
		for i, key := range []string{"announced", "price", "supplied_w"} {
			var err error
			if v[i], err = strconv.ParseFloat(s.Attr(key), 64); err != nil {
				return fmt.Errorf("f10: round span %d: %w", s.ID, err)
			}
		}
		errPct := 0.0
		if final != 0 {
			errPct = 100 * (v[1] - final) / final
		}
		round++
		tbl.AddRow(round, v[0], v[1], v[2], errPct)
	}
	return nil
}
