package check

import (
	"math"
	"testing"
	"time"

	"mpr/internal/core"
)

const diffSeedStream = 0x5eed_0004

// TestDiffStream is the streaming-vs-batch differential gate: over
// thousands of randomized update sequences (bid updates, removals,
// appends, retargets), the streamed clearing outcome must stay within
// the harness float tolerance of a from-scratch batch clear after every
// single prefix.
func TestDiffStream(t *testing.T) {
	start := time.Now()
	st, err := DiffStream(diffSeedStream, diffInstances(t), 96, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream vs batch: %d sequences, %d updates, %d participants, %d infeasible, %d singleton in %v",
		st.Instances, st.Updates, st.Participants, st.Infeasible, st.Singleton, time.Since(start))
	if st.Instances < diffInstances(t) {
		t.Errorf("ran %d sequences, want ≥ %d", st.Instances, diffInstances(t))
	}
	if st.Updates < 10*st.Instances {
		t.Errorf("applied %d updates over %d sequences, want 10 per sequence", st.Updates, st.Instances)
	}
	if st.Infeasible == 0 {
		t.Error("no infeasible states reached")
	}
	if st.Singleton == 0 {
		t.Error("no degenerate single-participant markets generated")
	}
}

// TestDiffStreamLargePools widens the pool sizes so treap descents cross
// recursion-depth regimes; fewer sequences, same comparisons.
func TestDiffStreamLargePools(t *testing.T) {
	if testing.Short() {
		t.Skip("large pools skipped in -short")
	}
	st, err := DiffStream(diffSeedStream+7, 300, 2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances != 300 {
		t.Errorf("ran %d sequences, want 300", st.Instances)
	}
}

// streamFromPool builds a stream market or fails the test.
func streamFromPool(t *testing.T, ps []*core.Participant, target float64) *core.StreamMarket {
	t.Helper()
	sm, err := core.NewStreamMarket(ps, target)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// Metamorphic: deltas on distinct indices commute bit-for-bit. The treap
// with fixed index-hashed priorities is a unique function of its
// (key, index) set, so the final tree shape — and every float summation
// order inside it — cannot depend on the order the deltas arrived in.
func TestMetamorphicStreamCommute(t *testing.T) {
	for i := 0; i < metaInstances; i++ {
		g := NewGen(instanceSeed(0xc0_2200, i))
		ps := g.Pool(2 + g.PoolSize(60))
		target := g.Target(MaxSupplyW(ps))
		a := g.rng.Intn(len(ps))
		b := g.rng.Intn(len(ps) - 1)
		if b >= a {
			b++
		}
		da := core.ParticipantDelta{Index: a, Bid: core.Bid{Delta: 8 * g.rng.Float64(), B: 5 * g.rng.Float64()}}
		db := core.ParticipantDelta{Index: b, Bid: core.Bid{Delta: 8 * g.rng.Float64(), B: 5 * g.rng.Float64()}}
		if g.rng.Float64() < 0.3 {
			da.Remove = true
		}
		apply := func(first, second core.ParticipantDelta) (float64, bool) {
			sm := streamFromPool(t, ps, target)
			if _, _, err := sm.Apply(first); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sm.Apply(second); err != nil {
				t.Fatal(err)
			}
			return sm.Price()
		}
		p1, f1 := apply(da, db)
		p2, f2 := apply(db, da)
		if p1 != p2 || f1 != f2 {
			t.Fatalf("instance %d: deltas do not commute: (%v,%v) vs (%v,%v)", i, p1, f1, p2, f2)
		}
	}
}

// Metamorphic: a market driven to a state by incremental deltas is
// bit-identical to one built directly from that final state — the update
// history leaves no residue in the tree shape or the aggregates.
func TestMetamorphicStreamHistoryFree(t *testing.T) {
	for i := 0; i < metaInstances; i++ {
		g := NewGen(instanceSeed(0xc0_2201, i))
		ps := g.Pool(g.PoolSize(60))
		target := g.Target(MaxSupplyW(ps))
		sm := streamFromPool(t, ps, target)
		final := make([]*core.Participant, len(ps))
		for j, p := range ps {
			cp := *p
			final[j] = &cp
		}
		for u := 0; u < 12; u++ {
			d, next, _ := streamDelta(g, final)
			final = next
			if _, _, err := sm.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		fresh := streamFromPool(t, final, target)
		p1, f1 := sm.Price()
		p2, f2 := fresh.Price()
		if p1 != p2 || f1 != f2 {
			t.Fatalf("instance %d: history residue: incremental (%v,%v) vs fresh (%v,%v)", i, p1, f1, p2, f2)
		}
		if sm.MaxSupplyW() != fresh.MaxSupplyW() {
			t.Fatalf("instance %d: capacity %v vs %v", i, sm.MaxSupplyW(), fresh.MaxSupplyW())
		}
	}
}

// Metamorphic: applying a delta and then restoring the original bid
// returns the price bit-for-bit — remove/reinsert round trips restore
// the exact tree.
func TestMetamorphicStreamRevert(t *testing.T) {
	for i := 0; i < metaInstances; i++ {
		g := NewGen(instanceSeed(0xc0_2202, i))
		ps := g.Pool(g.PoolSize(60))
		sm := streamFromPool(t, ps, g.Target(MaxSupplyW(ps)))
		p0, f0 := sm.Price()
		j := g.rng.Intn(len(ps))
		orig := ps[j].Bid
		d := core.ParticipantDelta{Index: j, Bid: core.Bid{Delta: 8 * g.rng.Float64(), B: 5 * g.rng.Float64()}}
		if g.rng.Float64() < 0.3 {
			d.Remove = true
		}
		if _, _, err := sm.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sm.Apply(core.ParticipantDelta{Index: j, Bid: orig}); err != nil {
			t.Fatal(err)
		}
		if p1, f1 := sm.Price(); p1 != p0 || f1 != f0 {
			t.Fatalf("instance %d: revert did not restore the price: (%v,%v) vs (%v,%v)", i, p1, f1, p0, f0)
		}
	}
}

// FuzzStreamMarket interleaves Apply on a stream market with
// SetBid/Refresh/Reset on a twin batch index, fuzzing both the initial
// pool and the operation sequence, and asserts price and
// per-participant reduction agreement after every operation.
func FuzzStreamMarket(f *testing.F) {
	f.Add(2.0, 1.0, 100.0, 4.0, 0.5, 150.0, 1.0, 2.0, 80.0, 0.5, int64(42))
	f.Add(0.0, 0.0, 100.0, 3.0, 0.0, 100.0, 3.0, 1.5, 100.0, 0.9, int64(7))
	f.Add(3.0, 1.5, 120.0, 6.0, 3.0, 120.0, 3.0, 1.5, 120.0, 1.25, int64(-1))
	f.Fuzz(func(t *testing.T, d1, b1, w1, d2, b2, w2, d3, b3, w3, tf float64, opSeed int64) {
		ps, ok := fuzzPool([9]float64{d1, b1, w1, d2, b2, w2, d3, b3, w3})
		if !ok {
			t.Skip()
		}
		target, ok := fuzzTarget(ps, tf)
		if !ok {
			t.Skip()
		}
		sm, err := core.NewStreamMarket(ps, target)
		if err != nil {
			t.Fatalf("stream build: %v", err)
		}
		twin := make([]*core.Participant, len(ps))
		for i, p := range ps {
			cp := *p
			twin[i] = &cp
		}
		ix, err := core.NewMarketIndex(twin)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		compare := func(ordinal int) {
			var got, want core.ClearingResult
			if err := sm.ClearInto(&got); err != nil {
				t.Fatalf("op %d: stream clear: %v", ordinal, err)
			}
			ix.Refresh()
			if err := ix.ClearInto(&want, sm.Target()); err != nil {
				t.Fatalf("op %d: batch clear: %v", ordinal, err)
			}
			if err := compareClears(twin, sm.Target(), &got, &want); err != nil {
				t.Fatalf("op %d: stream vs batch: %v", ordinal, err)
			}
		}
		compare(0)
		g := NewGen(opSeed)
		ops := 1 + g.rng.Intn(24)
		for u := 1; u <= ops; u++ {
			d, next, kind := streamDelta(g, twin)
			grew := len(next) != len(twin)
			twin = next
			if _, _, err := sm.Apply(d); err != nil {
				t.Fatalf("op %d (%s): %v", u, kind, err)
			}
			if grew {
				// The batch index has no append; rebind it to the grown
				// pool — a Reset interleaving in its own right.
				if err := ix.Reset(twin); err != nil {
					t.Fatalf("op %d: reset: %v", u, err)
				}
			} else if err := ix.SetBid(d.Index, twin[d.Index].Bid); err != nil {
				t.Fatalf("op %d: SetBid: %v", u, err)
			} else if d.WattsPerCore > 0 && !d.Remove {
				// Watts changes are outside SetBid's contract; rebind.
				if err := ix.Reset(twin); err != nil {
					t.Fatalf("op %d: reset: %v", u, err)
				}
			}
			if g.rng.Float64() < 0.15 {
				if _, _, err := sm.SetTarget(g.Target(MaxSupplyW(twin))); err != nil {
					t.Fatalf("op %d: retarget: %v", u, err)
				}
			}
			compare(u)
		}
		if p, _ := sm.Price(); math.IsNaN(p) || p < 0 || p > priceUpperBound {
			t.Fatalf("stream price out of range: %v", p)
		}
	})
}
