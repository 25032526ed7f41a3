package check

import (
	"fmt"

	"mpr/internal/core"
	"mpr/internal/runner"
)

// streamDelta draws one streaming update against the twin ground-truth
// pool, mirroring the adversarial shapes of Gen.Pool: Δ = 0
// degenerations, b = 0 willingness flips, exact duplicate activation
// prices (treap tie groups), watts changes, removals, and appends. The
// twin pool is mutated in lock-step — a removed slot is encoded as the
// zero bid, which supplies nothing at any price, exactly like the
// stream market's deactivated slot.
func streamDelta(g *Gen, twin []*core.Participant) (core.ParticipantDelta, []*core.Participant, string) {
	randomBid := func() core.Bid {
		delta := 0.05 + 8*g.rng.Float64()
		b := 0.01 + 5*g.rng.Float64()
		switch r := g.rng.Float64(); {
		case r < 0.08:
			delta = 0
		case r < 0.23:
			b = 0
		case r < 0.35:
			prev := twin[g.rng.Intn(len(twin))].Bid
			if prev.Delta > 0 {
				b = prev.ActivationPrice() * delta
			}
		}
		return core.Bid{Delta: delta, B: b}
	}
	switch r := g.rng.Float64(); {
	case r < 0.60: // bid update on an existing slot
		i := g.rng.Intn(len(twin))
		d := core.ParticipantDelta{Index: i, Bid: randomBid()}
		if g.rng.Float64() < 0.25 {
			d.WattsPerCore = 50 + 200*g.rng.Float64()
			twin[i].WattsPerCore = d.WattsPerCore
		}
		twin[i].Bid = d.Bid
		return d, twin, "update"
	case r < 0.80: // removal (possibly of an already-removed slot)
		i := g.rng.Intn(len(twin))
		twin[i].Bid = core.Bid{}
		return core.ParticipantDelta{Index: i, Remove: true}, twin, "remove"
	default: // append
		p := &core.Participant{
			JobID:        fmt.Sprintf("a%d", len(twin)),
			Cores:        1,
			Bid:          randomBid(),
			WattsPerCore: 50 + 200*g.rng.Float64(),
		}
		d := core.ParticipantDelta{Index: len(twin), Bid: p.Bid, WattsPerCore: p.WattsPerCore}
		return d, append(twin, p), "append"
	}
}

// DiffStream cross-checks the streaming clearing engine against
// from-scratch batch clears: each instance builds a StreamMarket and a
// twin ground-truth pool, applies a randomized update sequence — bid
// updates, removals, appends, and target changes — and after EVERY
// prefix compares the streamed clearing outcome against a fresh
// closed-form batch clear of the twin pool, plus the full invariant
// catalog on the streamed result. The returned error, if any, names the
// reproducing instance seed and the failing update ordinal.
func DiffStream(baseSeed int64, instances, maxN, updates int) (DiffStats, error) {
	parts, err := runner.MapN(0, instances, func(i int) (DiffStats, error) {
		seed := instanceSeed(baseSeed, i)
		g := NewGen(seed)
		var st DiffStats
		ps := g.Pool(g.PoolSize(maxN))
		target := g.Target(MaxSupplyW(ps))
		if err := diffOneStream(g, ps, target, updates, &st); err != nil {
			return st, fmt.Errorf("check: instance seed %d (base %d, instance %d): %w", seed, baseSeed, i, err)
		}
		return st, nil
	})
	if err != nil {
		return DiffStats{}, err
	}
	return foldStats(parts), nil
}

func diffOneStream(g *Gen, ps []*core.Participant, target float64, updates int, st *DiffStats) error {
	st.Instances++
	if len(ps) == 1 {
		st.Singleton++
	}
	sm, err := core.NewStreamMarket(ps, target)
	if err != nil {
		return fmt.Errorf("stream build: %v", err)
	}
	// The twin pool is the ground truth the batch oracle clears; it must
	// be an independent copy since the deltas mutate bids in place.
	twin := make([]*core.Participant, len(ps))
	for i, p := range ps {
		cp := *p
		twin[i] = &cp
	}
	check := func(ordinal int, kind string) error {
		var got core.ClearingResult
		if err := sm.ClearInto(&got); err != nil {
			return fmt.Errorf("update %d (%s): stream clear: %v", ordinal, kind, err)
		}
		want, err := core.Clear(twin, sm.Target())
		if err != nil {
			return fmt.Errorf("update %d (%s): batch clear: %v", ordinal, kind, err)
		}
		if err := CheckClearing(twin, sm.Target(), &got); err != nil {
			return fmt.Errorf("update %d (%s): stream violates invariants: %v", ordinal, kind, err)
		}
		if !got.Feasible {
			st.Infeasible++
		}
		if err := compareClears(twin, sm.Target(), &got, want); err != nil {
			return fmt.Errorf("update %d (%s): stream vs batch: %w", ordinal, kind, err)
		}
		return nil
	}
	if err := check(0, "build"); err != nil {
		return err
	}
	for u := 1; u <= updates; u++ {
		st.Updates++
		if g.rng.Float64() < 0.1 { // target change
			if _, _, err := sm.SetTarget(g.Target(MaxSupplyW(twin))); err != nil {
				return fmt.Errorf("update %d (retarget): %v", u, err)
			}
			if err := check(u, "retarget"); err != nil {
				return err
			}
			continue
		}
		d, next, kind := streamDelta(g, twin)
		twin = next
		if _, _, err := sm.Apply(d); err != nil {
			return fmt.Errorf("update %d (%s, %+v): %v", u, kind, d, err)
		}
		if err := check(u, kind); err != nil {
			return err
		}
	}
	st.Participants += len(twin)
	return nil
}
