package experiments

import (
	"strings"
	"testing"

	"mpr/internal/sim"
	"mpr/internal/telemetry/tsdb"
)

// renderResult flattens an experiment result into one canonical string so
// two runs can be compared byte for byte.
func renderResult(res *Result) string {
	var b strings.Builder
	for _, tbl := range res.Tables {
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	for _, n := range res.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSweepBitIdentity is the determinism contract of DESIGN.md §9: every
// sweep renders byte-identical tables at any worker count. The IDs cover
// each rewired sweep family — the Gaia oversubscription sweep (f8), its
// series-instrumented sibling whose timeline table is regenerated from
// the recorded store (f9), the participation and error sweeps (f12,
// f13), the cost-shape and case-matrix ablations (a2, whose linear cells
// are the Gaia sweep's, and a5), the GPU sweep whose configurations carry
// slice and map fields (f15), the two-stage uniform-vs-partitioned sweep
// (x4), the phase-noise sweep (x7), and the analytic Table I / CDF paths
// (t1, f1b). Timing experiments (f10, a1, a6) are excluded: their tables
// contain measured wall-clock columns, which no scheduling discipline can
// make identical. The multi-trace study f14 is exercised by
// TestAllExperimentsRunQuick but kept out of this matrix: its
// 20,000-core clusters dominate the suite's wall clock even at a 2-day
// horizon, and its sweep (one runAll over configurations on three
// cached traces) is built like f12/f13's.
// The matrix also crosses sim.Run with the fixed-step reference
// (simLoops): each must be worker-count invariant, and — because
// internal/check pins the two to bit-identical Results — the reference's
// tables must match Run's byte for byte as well.
func TestSweepBitIdentity(t *testing.T) {
	ids := []string{"f8", "f9", "x4", "t1"}
	if !testing.Short() {
		ids = append(ids, "f12", "f13", "a2", "a5", "f15", "x7", "f1b")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for i, loop := range simLoops(t) {
				for _, workers := range []int{1, 4, 16} {
					// Cold caches each time: with warm caches a second run
					// would trivially replay memoized results instead of
					// exercising the worker pool.
					ResetCaches()
					simRun = loop.run
					res, err := e.Run(Options{Seed: 1, Quick: true, Days: 2, Parallel: workers})
					if err != nil {
						t.Fatalf("loop=%s workers=%d: %v", loop.name, workers, err)
					}
					got := renderResult(res)
					if i == 0 && workers == 1 {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("loop=%s workers=%d rendering differs from Run serial:\n--- Run serial ---\n%s\n--- loop=%s workers=%d ---\n%s",
							loop.name, workers, want, loop.name, workers, got)
					}
				}
			}
		})
	}
}

// TestSeriesExportBitIdentity extends the determinism contract to the
// recorded series store itself: the timeline run's raw JSONL export is
// byte-identical at any worker count, from sim.Run and from the
// fixed-step reference. This is the property the mprbench -series flag
// relies on.
func TestSeriesExportBitIdentity(t *testing.T) {
	var want string
	for i, loop := range simLoops(t) {
		for _, workers := range []int{1, 4, 16} {
			ResetCaches()
			simRun = loop.run
			res, err := TimelineRun(Options{Seed: 1, Quick: true, Days: 2, Parallel: workers})
			if err != nil {
				t.Fatalf("loop=%s workers=%d: %v", loop.name, workers, err)
			}
			var b strings.Builder
			if err := tsdb.WriteJSONL(&b, res.Series.Query(tsdb.Query{})); err != nil {
				t.Fatalf("loop=%s workers=%d export: %v", loop.name, workers, err)
			}
			got := b.String()
			if i == 0 && workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("loop=%s workers=%d series export differs from Run serial (%d vs %d bytes)",
					loop.name, workers, len(got), len(want))
			}
		}
	}
	for _, name := range []string{sim.SeriesPowerDemandW, sim.SeriesOverloadW, sim.SeriesMarketRounds} {
		if !strings.Contains(want, name) {
			t.Fatalf("export is missing series %s", name)
		}
	}
}

// simLoop is one way of running a simulation for the experiments.
type simLoop struct {
	name string
	run  func(sim.Config) (*sim.Result, error)
}

// simLoops lists sim.Run, which every experiment uses, first, then the
// fixed-step reference, and puts simRun back when the test ends.
func simLoops(t *testing.T) []simLoop {
	t.Cleanup(func() { simRun = sim.Run })
	return []simLoop{{"run", sim.Run}, {"fixed-step", sim.RunFixedStep}}
}
