package sim

import "math"

// This file is Run's event path. While no emergency is in play (the event
// regime, eventRegime) Run goes from event to event: a slot costs its
// finishes, arrivals and starts, one read-only pass that sums the running
// jobs' power, and the jump to the next event; no pass runs over the jobs
// that do not change. Outside the regime Run steps every slot, as
// RunFixedStep does. The path is bit-exact — it leaves the state the
// stepped slots would, not a state within tolerance of it — which
// internal/check pins against RunFixedStep over adversarial instances.
//
// Inside the regime every running job is at full speed, so its progress is
// implicit: remainingMin holds its value at the top of slot anchor, and
// skipProgress brings it up to date, bit for bit, when the job finishes,
// when the regime ends and when the run ends. Its finish slot is projected
// once, on entry or at its start.

// eventRegime reports whether the event path may take over at the top of
// the current slot. It may when no slot needs a sample, a forecast or a
// power phase and no emergency is in force: then a slot changes only the
// jobs that finish or start in it. Outside an emergency no delayed order
// is in force (orders are placed in one, and a lift drops them), the
// controller is at rest (it declares on the first overloaded slot) and
// every running job is at full speed (a start sets it, and a lift resets
// every job); TestEventRegimeInvariant checks this slot by slot.
func (st *engineState) eventRegime() bool {
	return !st.cfg.SampleSeries && !st.cfg.Predictive && st.cfg.PhaseAmp == 0 && !st.emergency
}

// enterEvents puts the event regime in force at the top of slot: it
// anchors each running job's progress there and projects its finish.
func (st *engineState) enterEvents(slot int) {
	st.events = true
	for _, j := range st.active {
		j.anchor = slot
		j.finishAt = slot + finishSteps(j.remainingMin)
	}
	st.projections += len(st.active)
}

// leaveEvents ends the event regime at the top of slot, bringing every
// running job's remaining work up to date. Outside the regime it does
// nothing.
func (st *engineState) leaveEvents(slot int) {
	if !st.events {
		return
	}
	for _, j := range st.active {
		j.remainingMin = skipProgress(j.remainingMin, slot-j.anchor)
	}
	st.events = false
}

// eventSlot runs slot inside the event regime and returns the next slot to
// run. It is admit with the finish test read off the projections: one
// pass over the running jobs finishes those due, sums the power of the
// others in active order, and finds the next finish; the starts add theirs
// after it. That sum is the demand and the delivered power settle would
// sum, bit for bit: the same jobs in the same order, and at full speed
// allocW and fullW are the same expression. Above the capacity the regime
// ends and settle takes the slot, summing it itself. Within it the
// controller's step is the identity, no job is charged and every job
// progresses at unit speed, so nothing changes before the next arrival,
// finish or the horizon: the slots up to it replay only the
// used-extra-capacity integral, as the same sequence of additions
// (k·fl(x) additions ≠ fl(k·x)).
//
// The scheduler is FCFS, so no queued job can start in the slots skipped:
// the queue's head waits for cores, which only a finish frees, or for
// admission to re-open, which only a lift does, outside the regime.
func (st *engineState) eventSlot(slot int) (int, error) {
	st.steps++
	var powerW float64
	next := st.horizon + 1
	keep := st.active[:0]
	for _, j := range st.active {
		if j.finishAt <= slot {
			j.remainingMin = skipProgress(j.remainingMin, slot-j.anchor)
			if err := st.finishJob(j, slot); err != nil {
				return 0, err
			}
			continue
		}
		keep = append(keep, j)
		powerW += j.fullW
		next = min(next, j.finishAt)
	}
	st.active = keep
	if err := st.submitArrivals(slot); err != nil {
		return 0, err
	}
	for _, req := range st.scheduler.TryStartBudget(st.cfg.Trace.TotalCores) {
		j := st.jobs[req.ID]
		st.startJob(j, slot)
		// Not yet running at step 1 of slot, so it cannot finish before
		// the next one.
		j.anchor = slot
		j.finishAt = slot + max(finishSteps(j.remainingMin), 1)
		st.projections++
		powerW += j.fullW
		next = min(next, j.finishAt)
	}
	if powerW > st.capW {
		st.leaveEvents(slot)
		return slot + 1, st.settle(slot)
	}

	if st.nextArrival < len(st.arrivals) {
		next = min(next, st.arrivals[st.nextArrival].submitSlot)
	} else if len(st.active) == 0 {
		next = slot + 1
	}
	if activeCores := float64(st.activeCores); activeCores > st.baseCapCores {
		extra := (activeCores - st.baseCapCores) / 60
		for s := slot; s < next; s++ {
			st.res.UsedExtraCoreH += extra
		}
	}
	st.res.Slots = next
	return next, nil
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
