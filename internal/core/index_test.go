package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpr/internal/check/floats"
	"mpr/internal/perf"
)

// randomPool builds a seeded random participant pool for the differential
// tests: mixed willingness (B = 0 fully willing jobs), Δ = 0 jobs that
// can never supply, and heterogeneous watts-per-core.
func randomPool(rng *rand.Rand, n int) []*Participant {
	ps := make([]*Participant, n)
	for i := 0; i < n; i++ {
		delta := 0.1 + 7.9*rng.Float64()
		if rng.Float64() < 0.08 {
			delta = 0 // job that supports no reduction at all
		}
		b := 0.01 + 5*rng.Float64()
		if rng.Float64() < 0.15 {
			b = 0 // fully willing job
		}
		ps[i] = &Participant{
			JobID:        fmt.Sprintf("r%d", i),
			Cores:        float64(1 + rng.Intn(32)),
			Bid:          Bid{Delta: delta, B: b},
			WattsPerCore: 50 + 200*rng.Float64(),
		}
	}
	return ps
}

func poolMaxW(ps []*Participant) float64 {
	var maxW float64
	for _, p := range ps {
		maxW += p.WattsPerCore * p.Bid.Delta
	}
	return maxW
}

// TestClosedFormMatchesBisection is the differential property test: over
// seeded random pools of 1–10,000 participants (including B = 0 fully
// willing jobs, Δ = 0 jobs, and infeasible targets), the closed-form
// segmented solver and the bisection solver agree on feasibility,
// clearing price, reductions, and supplied power to 1e-9.
func TestClosedFormMatchesBisection(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 33, 257, 1025, 10000}
	if testing.Short() {
		sizes = []int{1, 2, 3, 7, 33, 257}
	}
	fracs := []float64{1e-6, 0.05, 0.3, 0.6, 0.9, 0.99, 0.999, 1.5, 3}
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7*n + 1)))
			ps := randomPool(rng, n)
			maxW := poolMaxW(ps)
			for _, frac := range fracs {
				target := frac * maxW
				if maxW == 0 { // all-Δ=0 pool: exercise the infeasible path
					target = 100
				}
				cf, err := Clear(ps, target)
				if err != nil {
					t.Fatalf("closed form target %v: %v", target, err)
				}
				bi, err := ClearBisect(ps, target)
				if err != nil {
					t.Fatalf("bisection target %v: %v", target, err)
				}
				if cf.Feasible != bi.Feasible {
					t.Fatalf("target %v: feasibility %v vs %v", target, cf.Feasible, bi.Feasible)
				}
				if cf.Feasible {
					// The bisection bracket is 1e-13-relative; 1e-9 leaves
					// four orders of magnitude of slack over its guarantee.
					if !floats.RelEqual(cf.Price, bi.Price, 1e-9) {
						t.Errorf("target %v (frac %v): price %v vs %v",
							target, frac, cf.Price, bi.Price)
					}
					if !floats.AbsEqual(cf.SuppliedW, bi.SuppliedW, 1e-9*(1+maxW)) {
						t.Errorf("target %v: supplied %v vs %v", target, cf.SuppliedW, bi.SuppliedW)
					}
					// Exactness: the closed form itself meets the target and
					// is minimal to 1e-9 relative.
					if cf.SuppliedW < target-1e-9*(1+target) {
						t.Errorf("target %v: closed form supplied %v short of target", target, cf.SuppliedW)
					}
				} else {
					// Infeasible prices are saturation sentinels and may
					// differ between solvers; everyone must be saturated.
					for i, p := range ps {
						if !floats.RelEqual(cf.Reductions[i], p.Bid.Delta, 1e-6) {
							t.Fatalf("infeasible: participant %d not saturated: %v vs Δ=%v",
								i, cf.Reductions[i], p.Bid.Delta)
						}
					}
				}
				for i := range ps {
					if !floats.AbsEqual(cf.Reductions[i], bi.Reductions[i], 1e-9*(1+ps[i].Bid.Delta)) {
						t.Errorf("target %v: reduction[%d] %v vs %v",
							target, i, cf.Reductions[i], bi.Reductions[i])
					}
				}
			}
		})
	}
}

// The index's O(log M) aggregate supply must match the naive O(M) sum at
// arbitrary prices, including q = 0 and prices below every activation.
func TestMarketIndexSupplyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 64, 513} {
		ps := randomPool(rng, n)
		ix, err := NewMarketIndex(ps)
		if err != nil {
			t.Fatal(err)
		}
		if !floats.AbsEqual(ix.MaxSupplyW(), poolMaxW(ps), 1e-6) {
			t.Errorf("n=%d: MaxSupplyW %v vs %v", n, ix.MaxSupplyW(), poolMaxW(ps))
		}
		prices := []float64{0, 1e-9, 0.01, 0.1, 0.5, 1, 3, 10, 100, 1e6}
		for _, q := range prices {
			var naive float64
			for _, p := range ps {
				naive += p.WattsPerCore * p.Bid.Supply(q)
			}
			got := ix.SupplyW(q)
			if !floats.RelEqual(got, naive, 1e-7) {
				t.Errorf("n=%d q=%v: SupplyW %v vs naive %v", n, q, got, naive)
			}
		}
	}
}

// Incremental SetBid + Refresh must land on the same prices and supplies
// as rebuilding the index from scratch.
func TestMarketIndexSetBidMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := randomPool(rng, 200)
	ix, err := NewMarketIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		// Mutate a subset of bids, including activation-order changes,
		// willingness flips, and Δ = 0 degenerations.
		for i := 0; i < len(ps); i += 3 + round {
			nb := Bid{Delta: 8 * rng.Float64(), B: 5 * rng.Float64()}
			switch i % 5 {
			case 0:
				nb.B = 0
			case 1:
				nb.Delta = 0
			}
			ps[i].Bid = nb
			if err := ix.SetBid(i, nb); err != nil {
				t.Fatal(err)
			}
		}
		fresh, err := NewMarketIndex(ps)
		if err != nil {
			t.Fatal(err)
		}
		target := 0.5 * poolMaxW(ps)
		inc, err := ix.Clear(target)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fresh.Clear(target)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Price != ref.Price || inc.SuppliedW != ref.SuppliedW || inc.Feasible != ref.Feasible {
			t.Fatalf("round %d: incremental %+v vs fresh %+v", round, inc, ref)
		}
		for i := range inc.Reductions {
			if inc.Reductions[i] != ref.Reductions[i] {
				t.Fatalf("round %d: reduction[%d] %v vs %v", round, i, inc.Reductions[i], ref.Reductions[i])
			}
		}
	}
	// Unchanged bids are no-ops: the index must not even go dirty.
	ix.Refresh()
	if err := ix.SetBid(0, ps[0].Bid); err != nil {
		t.Fatal(err)
	}
	if ix.dirty {
		t.Error("SetBid with an identical bid dirtied the index")
	}
	if err := ix.SetBid(1, Bid{Delta: -1}); err == nil {
		t.Error("invalid bid accepted by SetBid")
	}
}

// ClearInto must reuse the caller's result buffers: after the first
// call, repeated clears perform zero heap allocations.
func TestClearIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := randomPool(rng, 500)
	ix, err := NewMarketIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	target := 0.4 * poolMaxW(ps)
	var res ClearingResult
	if err := ix.ClearInto(&res, target); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ix.ClearInto(&res, target); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ClearInto allocated %v times per clear, want 0", allocs)
	}
}

// TestMarketIndexReset: an index reset onto another pool clears exactly
// like a freshly built index over that pool, and same-size (or smaller)
// resets reuse the backing arrays — zero allocations, the simulation
// engine's per-invocation pattern.
func TestMarketIndexReset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix, err := NewMarketIndex(randomPool(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{300, 120, 1, 300, 700, 250} {
		ps := randomPool(rng, n)
		if err := ix.Reset(ps); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMarketIndex(ps)
		if err != nil {
			t.Fatal(err)
		}
		target := 0.4 * poolMaxW(ps)
		var got, want ClearingResult
		if err := ix.ClearInto(&got, target); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ClearInto(&want, target); err != nil {
			t.Fatal(err)
		}
		if got.Price != want.Price || got.Feasible != want.Feasible || got.SuppliedW != want.SuppliedW {
			t.Fatalf("n=%d: reset clear (price %v feasible %v) != fresh (price %v feasible %v)",
				n, got.Price, got.Feasible, want.Price, want.Feasible)
		}
		for i := range ps {
			if got.Reductions[i] != want.Reductions[i] {
				t.Fatalf("n=%d: reduction[%d] %v != %v", n, i, got.Reductions[i], want.Reductions[i])
			}
		}
	}
	// A bad bid must be rejected exactly like NewMarketIndex rejects it.
	bad := randomPool(rng, 4)
	bad[2].Bid.Delta = -1
	if err := ix.Reset(bad); err == nil {
		t.Fatal("Reset accepted an invalid bid")
	}
	// Steady-state resets over a same-size pool reuse the arrays.
	steady := randomPool(rng, 700)
	if err := ix.Reset(steady); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ix.Reset(steady); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("same-size Reset allocated %v times per call, want 0", allocs)
	}
}

// Regression for the old contract violation: ClearInteractive used to
// overwrite the caller's ps[i].Bid with each round's rational bid. The
// participants must now come back untouched.
func TestInteractiveDoesNotMutateBids(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	ps, bs := interactiveSetup(t, apps, 16)
	before := make([]Bid, len(ps))
	for i, p := range ps {
		before[i] = p.Bid
	}
	res, err := ClearInteractive(ps, bs, 2500, InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i, p := range ps {
		if p.Bid != before[i] {
			t.Errorf("participant %d bid mutated: %+v -> %+v", i, before[i], p.Bid)
		}
	}
}

// The parallel rebid fan-out must be bit-identical to the sequential
// path: same price, rounds, and reductions. ClearInteractive fans out at
// GOMAXPROCS; the reference loop pins the other widths.
func TestInteractiveParallelMatchesSequential(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT", "miniMD", "miniFE"}
	names := make([]string, parallelBidFloor+32)
	for i := range names {
		names[i] = apps[i%len(apps)]
	}
	target := float64(len(names)) * 8 * 125 * 0.3
	run := func(workers int) *ClearingResult {
		ps, bs := interactiveSetup(t, names, 8)
		if workers == 0 {
			res, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res, _, err := referenceInteractive(ps, bs, target, InteractiveConfig{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, workers := range []int{0, 2, 4, 7} {
		par := run(workers)
		if par.Price != seq.Price || par.Rounds != seq.Rounds || par.Converged != seq.Converged {
			t.Fatalf("workers=%d: %+v vs sequential %+v", workers, par, seq)
		}
		for i := range seq.Reductions {
			if par.Reductions[i] != seq.Reductions[i] {
				t.Fatalf("workers=%d: reduction[%d] %v vs %v", workers, i, par.Reductions[i], seq.Reductions[i])
			}
		}
	}
}

// The interactive market must land on the same equilibrium regardless of
// the per-round solver.
func TestInteractiveSolverModesAgree(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD", "HPCCG", "SWFFT"}
	target := 3500.0
	ps, bs := interactiveSetup(t, apps, 16)
	fast, err := ClearInteractive(ps, bs, target, InteractiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The reference is the same price/bid fixpoint iteration under the
	// default InteractiveConfig, each round cleared by the bisection.
	ps2, bs2 := interactiveSetup(t, apps, 16)
	q, rounds, converged := 0.1, 0, false
	for rounds < 100 && !converged {
		rounds++
		for i, b := range bs2 {
			ps2[i].Bid = b.RespondBid(q)
		}
		r, err := ClearBisect(ps2, target)
		if err != nil {
			t.Fatal(err)
		}
		converged = math.Abs(r.Price-q) <= 1e-6*math.Max(q, 1e-12)
		q = r.Price
	}
	if fast.Converged != converged || fast.Rounds != rounds {
		t.Errorf("closed form %+v vs bisection converged=%v rounds=%d", fast, converged, rounds)
	}
	if !floats.RelEqual(fast.Price, q, 1e-6) {
		t.Errorf("equilibrium price %v vs %v", fast.Price, q)
	}
}

// Edge parity between the closed form and the bisection reference for
// the degenerate inputs.
func TestSolverEdgeParity(t *testing.T) {
	for name, clear := range map[string]func([]*Participant, float64) (*ClearingResult, error){
		"closed-form": Clear, "bisection": ClearBisect,
	} {
		if res, err := clear(nil, 0); err != nil || !res.Feasible || res.Price != 0 {
			t.Errorf("%v: zero target = %+v, %v", name, res, err)
		}
		if _, err := clear(nil, 10); err != ErrNoParticipants {
			t.Errorf("%v: err = %v, want ErrNoParticipants", name, err)
		}
		bad := &Participant{JobID: "bad", Cores: 1, WattsPerCore: 0, Bid: Bid{Delta: 1}}
		if _, err := clear([]*Participant{bad}, 10); err == nil {
			t.Errorf("%v: invalid participant accepted", name)
		}
		// A pool that can never supply anything: infeasible, saturation
		// price at the 1e-6 floor in both solvers.
		dead := []*Participant{{JobID: "z", Cores: 4, WattsPerCore: 125, Bid: Bid{Delta: 0, B: 3}}}
		res, err := clear(dead, 50)
		if err != nil {
			t.Fatalf("%v: %v", name, err)
		}
		if res.Feasible || res.SuppliedW != 0 || res.Price != 1e-6 {
			t.Errorf("%v: dead pool result = %+v", name, res)
		}
	}
}

// The cooperative-bid pool sanity check at real profile scale: the
// closed form reproduces the bisection clearing on the perf-model pool
// used throughout the test suite.
func TestClosedFormOnProfilePool(t *testing.T) {
	profiles := perf.CPUProfiles()
	var ps []*Participant
	for i := 0; i < 64; i++ {
		prof := profiles[i%len(profiles)]
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		cores := float64(4 + i%13)
		ps = append(ps, &Participant{
			JobID:        fmt.Sprintf("p%d", i),
			Cores:        cores,
			Bid:          CooperativeBid(cores, model),
			WattsPerCore: 125,
			MaxFrac:      prof.MaxReduction(),
		})
	}
	maxW := poolMaxW(ps)
	for _, frac := range []float64{0.1, 0.4, 0.8, 0.99} {
		cf, err := Clear(ps, frac*maxW)
		if err != nil {
			t.Fatal(err)
		}
		bi, err := ClearBisect(ps, frac*maxW)
		if err != nil {
			t.Fatal(err)
		}
		if !floats.RelEqual(cf.Price, bi.Price, 1e-9) {
			t.Errorf("frac %v: price %v vs %v", frac, cf.Price, bi.Price)
		}
	}
}

// Clear borrows its index from a pool: a result must own its Reductions
// (a later clear may not write into it), an index recycled from a larger
// or smaller pool must solve as a fresh one does, bit for bit, and
// concurrent one-shot clears must not share an index.
func TestOneShotClearsRecycleTheIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	type instance struct {
		ps     []*Participant
		target float64
		want   *ClearingResult
	}
	var insts []instance
	for _, n := range []int{700, 5, 3000, 64, 700} {
		ps := randomPool(rng, n)
		ix, err := NewMarketIndex(ps)
		if err != nil {
			t.Fatal(err)
		}
		target := 0.5 * ix.MaxSupplyW()
		want, err := ix.Clear(target)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{ps, target, want})
	}
	same := func(got, want *ClearingResult) bool {
		if math.Float64bits(got.Price) != math.Float64bits(want.Price) || got.Feasible != want.Feasible ||
			len(got.Reductions) != len(want.Reductions) {
			return false
		}
		for i := range want.Reductions {
			if math.Float64bits(got.Reductions[i]) != math.Float64bits(want.Reductions[i]) {
				return false
			}
		}
		return true
	}
	var kept []*ClearingResult
	for k, in := range insts {
		got, err := Clear(in.ps, in.target)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got, in.want) {
			t.Fatalf("instance %d: pooled Clear differs from a fresh index", k)
		}
		kept = append(kept, got)
	}
	for k, got := range kept {
		if !same(got, insts[k].want) {
			t.Fatalf("instance %d: result changed after later clears — it does not own its Reductions", k)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for k, in := range insts {
					got, err := Clear(in.ps, in.target)
					if err != nil || !same(got, in.want) {
						t.Errorf("concurrent Clear of instance %d: %v, or a different result", k, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
