package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/runner"
	"mpr/internal/stats"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/tsdb"
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

	// The per-round price trajectory is recorded as market_round trace
	// events on the largest pool, ingested into a series store, and read
	// back as per-round convergence series — the same record/replay path
	// the post-hoc tooling uses (DESIGN.md §7).
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
			intCfg.Trace = tracer.StartTrace(fmt.Sprintf("mpr-int-n%d", n))
		}
		t0 = time.Now()
		intRes, err := core.ClearInteractive(parts, bidders, target, intCfg)
		if err != nil {
			return nil, err
		}
		intMS := time.Since(t0).Seconds() * 1000

		if n == largest {
			store := tsdb.New(0)
			tsdb.IngestMarketTrace(store, tracer.Events())
			match := map[string]string{"trace": fmt.Sprintf("mpr-int-n%d", n)}
			get := func(name string) []tsdb.Point {
				data := store.Query(tsdb.Query{Name: name, Match: match})
				if len(data) == 0 {
					return nil
				}
				return data[0].Points
			}
			announced := get(tsdb.SeriesMarketAnnouncedPrice)
			cleared := get(tsdb.SeriesMarketClearedPrice)
			supplied := get(tsdb.SeriesMarketSuppliedW)
			final := intRes.Price
			for i := range announced {
				if i >= len(cleared) || i >= len(supplied) {
					break
				}
				errPct := 0.0
				if final != 0 {
					errPct = 100 * (cleared[i].V - final) / final
				}
				convTbl.AddRow(int(announced[i].T), announced[i].V,
					cleared[i].V, supplied[i].V, errPct)
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
			"the convergence trajectory is regenerated from recorded series: the per-round market_round trace events are ingested into a time-series store and queried back (DESIGN.md §7); price error is the cleared price's deviation from the final (Nash) price",
		}}, nil
}
