package sim

import (
	"math"

	"mpr/internal/power"
)

// This file is Run's skip-ahead: the slot ranges in which provably
// nothing observable happens are replayed in bulk instead of stepped.
// Skipping is conservative — quietUntil skips nothing while any dense
// regime (per-slot sampling, forecasting, power phases, an emergency, an
// order in flight, a non-empty queue) is in play, and then Run is exactly
// the fixed-step loop — and bit-exact: a skipped range leaves the state the
// stepped range would have, not a state within tolerance of it, which
// internal/check pins against RunFixedStep over adversarial instances.

// quietUntil returns the first slot at or after slot where the state can
// change — the next arrival, the earliest finish among the active jobs,
// or the end of the horizon — or slot itself when the slots ahead are
// not provably inert. They are inert when no dense regime is active, the
// controller is at rest, every active job runs at full speed, and the
// delivered power sits within capacity, so the skipped controller steps
// are identity transitions.
//
// One pass over the active jobs checks the speeds, sums the power and
// projects the finishes, and it stops at the first job that pins slot: one
// below full speed or one that finishes here. A finish is projected from
// the job's remaining work at unit speed, so the projection is exact (see
// skipProgress) for as long as the job keeps unit speed — finishSteps of
// the remaining work a stepped or skipped slot later is one less — and
// each job is projected once per setAlloc and kept in finishAt, whether
// or not the range ahead turns out to be inert.
func (st *engineState) quietUntil(slot int) int {
	next := st.horizon + 1
	if st.nextArrival < len(st.arrivals) {
		next = min(next, st.arrivals[st.nextArrival].submitSlot)
	}
	if next <= slot {
		return slot
	}
	// A per-slot series consumer must see every slot (the sampler contract
	// is one sample per simulated slot, timestamps in virtual slot time);
	// the forecaster observes every slot; power phases move every slot.
	if st.cfg.SampleSeries || st.cfg.Predictive || st.cfg.PhaseAmp > 0 {
		return slot
	}
	if st.emergency || st.pendingAllocs != nil || st.ec.State() != power.StateNormal {
		return slot
	}
	// A non-empty admission queue can start jobs on any upcoming slot
	// (notably the slot right after an emergency lift re-opens admission,
	// or whenever a finish frees cores): queued work keeps the run dense.
	if st.scheduler.QueueLen() > 0 {
		return slot
	}
	var deliveredW float64
	for _, j := range st.active {
		if j.alloc != 1 {
			return slot
		}
		deliveredW += j.fullW
		if j.finishAt == unprojected {
			j.finishAt = slot + finishSteps(j.remainingMin)
			st.projections++
		}
		if j.finishAt <= slot {
			return slot
		}
		next = min(next, j.finishAt)
	}
	if deliveredW > st.capW {
		return slot
	}
	return next
}

// finishSteps returns the number of further unit-speed slots the job
// stays active: the smallest q ≥ 0 with remaining − q ≤ 1e-9 (the
// finish threshold step() tests at the top of each slot). The
// subtraction remaining − float64(q) is exact for every q that matters
// (both operands are multiples of ulp(remaining) and the difference has
// magnitude below remaining's binade), so the comparison is the same
// one the fixed-step loop performs after q iterated decrements.
func finishSteps(remaining float64) int {
	q := int(math.Ceil(remaining - 1e-9))
	if q < 0 {
		q = 0
	}
	for q > 0 && remaining-float64(q-1) <= 1e-9 {
		q--
	}
	for remaining-float64(q) > 1e-9 {
		q++
	}
	return q
}

// skipProgress returns the remaining work after k unit-speed slots,
// bit-identical to k iterated `remaining -= 1.0` steps. While the
// minuend stays ≥ 1 each decrement is exact (1 is a multiple of
// ulp(minuend) for any minuend in [1, 2^53), and the difference — a
// multiple of the same grid with smaller magnitude — is representable in
// its finer binade), so those steps collapse into one subtraction; at
// most the final sub-1 step can round, and it is replayed literally.
func skipProgress(r float64, k int) float64 {
	if k <= 0 {
		return r
	}
	if r >= float64(k)+1 {
		// Every minuend stays ≥ 1: all k steps exact.
		return r - float64(k)
	}
	if r >= 1 {
		s := int(math.Floor(r)) // steps with minuend ≥ 1
		if s > k {
			s = k
		}
		r -= float64(s)
		k -= s
	}
	for ; k > 0; k-- {
		r -= 1
	}
	return r
}

// skipTo replays the inert slot range [from, to) in bulk: no arrivals,
// no finishes, no controller transitions, no market activity, no series
// consumers — the fixed-step loop would only have decremented remaining
// work by 1.0 per slot, accrued the used-extra-capacity integral, and
// advanced the slot counter. Float accumulators are replayed as the same
// sequence of additions (k·fl(x) additions ≠ fl(k·x)), keeping the
// Result bit-identical; integer state advances in one move.
func (st *engineState) skipTo(from, to int) {
	k := to - from
	for _, j := range st.active {
		j.remainingMin = skipProgress(j.remainingMin, k)
	}
	if activeCores := float64(st.activeCores); activeCores > st.baseCapCores {
		extra := (activeCores - st.baseCapCores) / 60
		for i := 0; i < k; i++ {
			st.res.UsedExtraCoreH += extra
		}
	}
	st.res.Slots = to
}
