package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpr/internal/check/floats"
)

// streamOracle builds the batch twin of a stream market's current state:
// removed slots behave exactly like Δ = 0 bids (no supply at any price),
// so the oracle pool encodes them that way.
func streamOracle(t *testing.T, sm *StreamMarket) *MarketIndex {
	t.Helper()
	ps := make([]*Participant, sm.Len())
	for i := range ps {
		p := &Participant{
			JobID:        fmt.Sprintf("s%d", i),
			Cores:        1,
			WattsPerCore: sm.watts[i],
			Bid:          sm.bids[i],
		}
		if !sm.active[i] {
			p.Bid = Bid{}
		}
		ps[i] = p
	}
	ix, err := NewMarketIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// compareStreamToBatch asserts the stream market's cached price agrees
// with a from-scratch batch clear of its current state to the harness
// float tolerance (summation orders differ between the treap and the
// sorted prefix sums, so bit-identity is not the contract here).
func compareStreamToBatch(t *testing.T, sm *StreamMarket, ctx string) {
	t.Helper()
	ix := streamOracle(t, sm)
	wantPrice, wantFeasible := ix.minPrice(sm.target)
	gotPrice, gotFeasible := sm.Price()
	if gotFeasible != wantFeasible {
		t.Fatalf("%s: feasible %v, batch %v", ctx, gotFeasible, wantFeasible)
	}
	if wantFeasible {
		scale := 1 + math.Abs(wantPrice)
		if !floats.AbsEqual(gotPrice, wantPrice, 1e-9*scale) {
			t.Fatalf("%s: price %v, batch %v", ctx, gotPrice, wantPrice)
		}
	}
	if !floats.RelEqual(sm.MaxSupplyW(), ix.MaxSupplyW(), 1e-9) {
		t.Fatalf("%s: maxW %v, batch %v", ctx, sm.MaxSupplyW(), ix.MaxSupplyW())
	}
	if err := sm.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// The streaming solve must agree with the batch index over random pools
// and the full target spectrum, including infeasible targets and the
// all-Δ=0 pool.
func TestStreamMatchesBatchClear(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 33, 257, 1025, 10000}
	if testing.Short() {
		sizes = []int{1, 2, 3, 7, 33, 257}
	}
	fracs := []float64{1e-6, 0.05, 0.3, 0.6, 0.9, 0.99, 0.999, 1.5, 3}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(13*n + 5)))
		ps := randomPool(rng, n)
		maxW := poolMaxW(ps)
		for _, frac := range fracs {
			target := frac * maxW
			if maxW == 0 {
				target = 100
			}
			sm, err := NewStreamMarket(ps, target)
			if err != nil {
				t.Fatal(err)
			}
			compareStreamToBatch(t, sm, fmt.Sprintf("n=%d frac=%v", n, frac))

			// The materialized clear must agree with the batch mode too.
			var got, want ClearingResult
			if err := sm.ClearInto(&got); err != nil {
				t.Fatal(err)
			}
			ix := streamOracle(t, sm)
			if err := ix.ClearInto(&want, target); err != nil {
				t.Fatal(err)
			}
			if got.Feasible != want.Feasible {
				t.Fatalf("n=%d frac=%v: ClearInto feasible %v vs %v", n, frac, got.Feasible, want.Feasible)
			}
			if got.Feasible && !floats.AbsEqual(got.SuppliedW, want.SuppliedW, 1e-6*(1+maxW)) {
				t.Fatalf("n=%d frac=%v: supplied %v vs %v", n, frac, got.SuppliedW, want.SuppliedW)
			}
			for i := range got.Reductions {
				if !floats.AbsEqual(got.Reductions[i], want.Reductions[i], 1e-6*(1+ps[i].Bid.Delta)) {
					t.Fatalf("n=%d frac=%v: reduction[%d] %v vs %v",
						n, frac, i, got.Reductions[i], want.Reductions[i])
				}
			}
		}
	}
}

// The O(log M) streaming supply evaluation must match the naive sum.
func TestStreamSupplyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 5, 64, 513} {
		ps := randomPool(rng, n)
		sm, err := NewStreamMarket(ps, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 1e-9, 0.01, 0.1, 0.5, 1, 3, 10, 100, 1e6} {
			var naive float64
			for _, p := range ps {
				naive += p.WattsPerCore * p.Bid.Supply(q)
			}
			if got := sm.SupplyW(q); !floats.RelEqual(got, naive, 1e-7) {
				t.Errorf("n=%d q=%v: SupplyW %v vs naive %v", n, q, got, naive)
			}
		}
	}
}

// Long randomized Apply sequences — bid updates, activation-order flips,
// Δ = 0 degenerations, removals, re-activations, appends, and target
// changes — must keep the streamed price within tolerance of a
// from-scratch batch clear after every single update, with the treap
// invariants intact throughout.
func TestStreamApplyMatchesBatchAfterEveryUpdate(t *testing.T) {
	updates := 600
	if testing.Short() {
		updates = 150
	}
	rng := rand.New(rand.NewSource(2024))
	ps := randomPool(rng, 120)
	sm, err := NewStreamMarket(ps, 0.5*poolMaxW(ps))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < updates; u++ {
		var d ParticipantDelta
		switch op := rng.Intn(10); {
		case op < 6: // bid update on an existing slot
			d.Index = rng.Intn(sm.Len())
			d.Bid = Bid{Delta: 8 * rng.Float64(), B: 5 * rng.Float64()}
			switch u % 7 {
			case 0:
				d.Bid.B = 0
			case 1:
				d.Bid.Delta = 0
			}
			if rng.Intn(4) == 0 {
				d.WattsPerCore = 50 + 200*rng.Float64()
			}
		case op < 8: // removal (possibly of an already-removed slot)
			d.Index = rng.Intn(sm.Len())
			d.Remove = true
		case op < 9: // append
			d.Index = sm.Len()
			d.Bid = Bid{Delta: 8 * rng.Float64(), B: 5 * rng.Float64()}
			d.WattsPerCore = 50 + 200*rng.Float64()
		default: // target change
			if _, _, err := sm.SetTarget(sm.MaxSupplyW() * (0.1 + 1.2*rng.Float64())); err != nil {
				t.Fatalf("update %d (retarget): %v", u, err)
			}
			compareStreamToBatch(t, sm, fmt.Sprintf("update %d (retarget)", u))
			continue
		}
		if _, _, err := sm.Apply(d); err != nil {
			t.Fatalf("update %d: %v", u, err)
		}
		compareStreamToBatch(t, sm, fmt.Sprintf("update %d", u))
	}
}

// Replaying the same update history must reproduce every published price
// bit for bit: the treap's shape (fixed splitmix64 priorities) and with
// it every aggregate's summation order depend only on the history.
func TestStreamReplayBitIdentical(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(99))
		ps := randomPool(rng, 80)
		sm, err := NewStreamMarket(ps, 0.6*poolMaxW(ps))
		if err != nil {
			t.Fatal(err)
		}
		var prices []float64
		for u := 0; u < 200; u++ {
			d := ParticipantDelta{
				Index: rng.Intn(sm.Len()),
				Bid:   Bid{Delta: 8 * rng.Float64(), B: 5 * rng.Float64()},
			}
			if u%11 == 0 {
				d.Remove = true
			}
			p, _, err := sm.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			prices = append(prices, p)
		}
		return prices
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at update %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Out-of-range and invalid deltas must come back as typed errors with
// the market state untouched — the streaming mirror of the SetBid guard.
func TestStreamApplyRangeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomPool(rng, 10)
	sm, err := NewStreamMarket(ps, 100)
	if err != nil {
		t.Fatal(err)
	}
	price0, feas0 := sm.Price()
	for _, d := range []ParticipantDelta{
		{Index: -1, Bid: Bid{Delta: 1}},
		{Index: 11, Bid: Bid{Delta: 1}},
		{Index: 10, Remove: true}, // append position cannot be removed
	} {
		_, _, err := sm.Apply(d)
		var re *ParticipantRangeError
		if !asParticipantRange(err, &re) {
			t.Fatalf("Apply(%+v) err = %v, want *ParticipantRangeError", d, err)
		}
		if re.Len != 10 {
			t.Errorf("range error Len = %d, want 10", re.Len)
		}
		if re.Error() == "" {
			t.Error("empty range error message")
		}
	}
	if _, _, err := sm.Apply(ParticipantDelta{Index: 0, Bid: Bid{Delta: -1}}); err == nil {
		t.Error("invalid bid accepted")
	}
	if _, _, err := sm.Apply(ParticipantDelta{Index: 0, Bid: Bid{Delta: 1}, WattsPerCore: -5}); err == nil {
		t.Error("negative watts accepted")
	}
	if _, _, err := sm.Apply(ParticipantDelta{Index: 10, Bid: Bid{Delta: 1}}); err == nil {
		t.Error("append without watts accepted")
	}
	if p, f := sm.Price(); p != price0 || f != feas0 {
		t.Errorf("rejected deltas moved the price: (%v,%v) -> (%v,%v)", price0, feas0, p, f)
	}
}

func asParticipantRange(err error, target **ParticipantRangeError) bool {
	re, ok := err.(*ParticipantRangeError)
	if ok {
		*target = re
	}
	return ok
}

// Steady-state Apply must not allocate: update an existing slot's bid
// back and forth (including activation-order changes) under the no-op
// telemetry registry.
func TestStreamApplyZeroAllocCore(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := randomPool(rng, 2048)
	sm, err := NewStreamMarket(ps, 0.5*poolMaxW(ps))
	if err != nil {
		t.Fatal(err)
	}
	a := ParticipantDelta{Index: 17, Bid: Bid{Delta: 4, B: 0.01}} // low activation
	b := ParticipantDelta{Index: 17, Bid: Bid{Delta: 4, B: 40}}   // high activation
	flip := false
	allocs := testing.AllocsPerRun(200, func() {
		d := a
		if flip {
			d = b
		}
		flip = !flip
		if _, _, err := sm.Apply(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Apply allocated %v times per update, want 0", allocs)
	}
	// ClearInto with a warm result buffer is also allocation-free.
	var res ClearingResult
	if err := sm.ClearInto(&res); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := sm.ClearInto(&res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ClearInto allocated %v times per clear, want 0", allocs)
	}
}

// The fixed-hash priorities must keep the tree balanced: depth stays
// within a small multiple of log₂ M across heavy churn.
func TestStreamTreeStaysBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 20000
	if testing.Short() {
		n = 4000
	}
	ps := randomPool(rng, n)
	sm, err := NewStreamMarket(ps, 0.5*poolMaxW(ps))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3000; u++ {
		d := ParticipantDelta{
			Index: rng.Intn(sm.Len()),
			Bid:   Bid{Delta: 8 * rng.Float64(), B: 5 * rng.Float64()},
		}
		if _, _, err := sm.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	limit := 5 * int(math.Log2(float64(n))+1)
	if got := sm.depth(); got > limit {
		t.Errorf("tree depth %d exceeds %d (5·log₂ %d) — priority hash broken?", got, limit, n)
	}
	if err := sm.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Edge semantics: zero/negative targets clear trivially, the empty
// market mirrors the batch ErrNoParticipants contract, and a freshly
// built stream's one-shot ClearInto matches the batch Clear.
func TestStreamEdgesAndMode(t *testing.T) {
	sm, err := NewStreamMarket(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res ClearingResult
	if err := sm.ClearInto(&res); err != nil || !res.Feasible || res.Price != 0 {
		t.Errorf("zero target on empty market: %+v, %v", res, err)
	}
	if _, feasible, err := sm.SetTarget(10); feasible || err != nil {
		t.Error("empty market feasible at positive target")
	}
	if err := sm.ClearInto(&res); err != ErrNoParticipants {
		t.Errorf("err = %v, want ErrNoParticipants", err)
	}

	rng := rand.New(rand.NewSource(12))
	ps := randomPool(rng, 64)
	target := 0.4 * poolMaxW(ps)
	sm2, err := NewStreamMarket(ps, target)
	if err != nil {
		t.Fatal(err)
	}
	var st ClearingResult
	if err := sm2.ClearInto(&st); err != nil {
		t.Fatal(err)
	}
	cf, err := Clear(ps, target)
	if err != nil {
		t.Fatal(err)
	}
	if st.Feasible != cf.Feasible || !floats.RelEqual(st.Price, cf.Price, 1e-9) {
		t.Errorf("streaming clear %+v vs closed form %+v", st, cf)
	}

	// Removing every participant empties the tree; re-activation restores.
	for i := 0; i < sm2.Len(); i++ {
		if _, _, err := sm2.Apply(ParticipantDelta{Index: i, Remove: true}); err != nil {
			t.Fatal(err)
		}
	}
	if sm2.MaxSupplyW() != 0 {
		t.Errorf("fully removed market still supplies %v W", sm2.MaxSupplyW())
	}
	if _, feasible := sm2.Price(); feasible {
		t.Error("fully removed market feasible")
	}
	for i := 0; i < sm2.Len(); i++ {
		d := ParticipantDelta{Index: i, Bid: ps[i].Bid, WattsPerCore: ps[i].WattsPerCore}
		if _, _, err := sm2.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	compareStreamToBatch(t, sm2, "after full remove/re-add cycle")
	if p, _ := sm2.Price(); !floats.RelEqual(p, cf.Price, 1e-9) {
		t.Errorf("re-added market price %v, want %v", p, cf.Price)
	}
	if sm2.Target() != target {
		t.Errorf("Target() = %v, want %v", sm2.Target(), target)
	}
}
