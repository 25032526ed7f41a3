package core

import "math"

// MarketIndex is the reusable fast path for MClr. It precomputes, per
// participant, the weighted supply terms WΔᵢ = WattsPerCoreᵢ·Δᵢ and
// Wbᵢ = WattsPerCoreᵢ·bᵢ, sorts participants by activation price
// aᵢ = bᵢ/Δᵢ, and maintains prefix sums of WΔ and Wb over that order.
//
// Because every supply function is the same scalar-parameterized
// hyperbola δ(q) = [Δ − b/q]⁺, the aggregate supply over the active
// prefix {i : aᵢ ≤ q} collapses to
//
//	S(q) = ΣWΔ − ΣWb/q,
//
// evaluable in O(log M) (binary search for the prefix plus two lookups),
// and the minimal clearing price solves **exactly** per activation
// segment: q′ = ΣWb/(ΣWΔ − target). No bisection is needed at all.
//
// Costs: O(M) one-time build (a bucket sort, see bucketOrder), O(log M)
// per price solve, O(M) to materialize per-participant reductions.
// Across simulation steps and MPR-INT rounds the index is reused — SetBid
// marks changed bids and Refresh re-sorts only when the activation order
// actually changed, recomputing the prefix sums in O(M) with no
// allocation.
//
// A MarketIndex is not safe for concurrent mutation; concurrent calls to
// the read-only methods (SupplyW, MaxSupplyW) are safe once built.
type MarketIndex struct {
	watts []float64 // WattsPerCore, original participant order
	bids  []Bid     // current bids, original participant order
	key   []float64 // activation price per participant (+Inf when Δ = 0)

	order  []int     // participant indices sorted by (key, index)
	act    []float64 // act[k] = key[order[k]]
	prefWD []float64 // prefWD[k] = Σ_{j<k} W·Δ over order (len n+1)
	prefWB []float64 // prefWB[k] = Σ_{j<k} W·b over order (len n+1)
	finite int       // number of entries with a finite activation price
	maxW   float64   // prefWD[n]: aggregate supply ceiling in watts
	dirty  bool
	sorts  int // rebuilds that actually re-sorted (tests the Refresh fast path)
}

// NewMarketIndex validates the participants and builds the index over
// their current bids. The index keeps its own copy of the bids; later
// changes to the participants are not seen unless applied via SetBid.
func NewMarketIndex(ps []*Participant) (*MarketIndex, error) {
	ix := &MarketIndex{}
	if err := ix.Reset(ps); err != nil {
		return nil, err
	}
	return ix, nil
}

// Reset rebinds the index to a (possibly different) participant set,
// validating like NewMarketIndex and rebuilding the activation order
// from scratch. The backing arrays are reused whenever their capacity
// suffices, so a long-lived index reset against same-size (or smaller)
// pools — the simulation engine's per-invocation pattern — allocates
// nothing. A failed Reset returns the first invalid participant's error
// and leaves the index empty.
func (ix *MarketIndex) Reset(ps []*Participant) error {
	n := len(ps)
	if cap(ix.watts) >= n && cap(ix.prefWD) >= n+1 {
		ix.watts = ix.watts[:n]
		ix.bids = ix.bids[:n]
		ix.key = ix.key[:n]
		ix.order = ix.order[:n]
		ix.act = ix.act[:n]
		ix.prefWD = ix.prefWD[:n+1]
		ix.prefWB = ix.prefWB[:n+1]
	} else {
		ix.watts = make([]float64, n)
		ix.bids = make([]Bid, n)
		ix.key = make([]float64, n)
		ix.order = make([]int, n)
		ix.act = make([]float64, n)
		ix.prefWD = make([]float64, n+1)
		ix.prefWB = make([]float64, n+1)
	}
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			ix.Reset(nil)
			return err
		}
		ix.watts[i] = p.WattsPerCore
		ix.bids[i] = p.Bid
		ix.key[i] = activationKey(p.Bid)
		ix.order[i] = i
	}
	ix.rebuild(true)
	return nil
}

// activationKey is the sort key: the activation price b/Δ, or +Inf for
// bids that can never supply (Δ = 0), pushing them past every segment so
// they contribute nothing to the prefix sums.
func activationKey(b Bid) float64 {
	if b.Delta <= 0 {
		return math.Inf(1)
	}
	return b.B / b.Delta
}

// isSorted reports whether order still is the (key, index) order. Ties
// break on the participant index so the sorted permutation — and
// therefore the floating-point summation order of the prefix sums — is
// unique regardless of rebuild history.
func (ix *MarketIndex) isSorted() bool {
	for k := 1; k < len(ix.order); k++ {
		p, i := ix.order[k-1], ix.order[k]
		if kp, ki := ix.key[p], ix.key[i]; ki < kp || (ki == kp && i < p) {
			return false
		}
	}
	return true
}

// insertionCutoff is the largest pool sorted by insertion whatever its
// order: on distinct random keys the one-shot clear is ~20 % faster by
// insertion at 32 keys and ~15 % faster by the bucket sort's linear passes
// at 48 (BenchmarkClearFresh32 and 64 sit on either side).
const insertionCutoff = 40

// refreshSlack is how far from sorted a larger pool may be and still be
// re-sorted by insertion: about this many bids out of place, wherever
// they went. At 30,000 that costs about what the bucket sort does
// (BenchmarkIndexRefresh16of30000), so this is the break-even.
const refreshSlack = 16

// sortOrder sets order to the unique (key, index) permutation — the one
// ordering kernel, MarketIndex's and NewStreamMarket's. fresh says the
// current order is the identity (a build) rather than the order before
// some bids changed (Refresh); aK, bK and bI are bucketOrder's scratch.
// It reports whether the bucket sort ran, leaving the sorted keys in bK.
func sortOrder[I int | int32, S int | int32 | float64](order []I, key []float64, fresh bool, aK, bK []float64, bI []S) (bucketed bool) {
	n := len(order)
	// Insertion sort from the current order. Placing order[k] moves at
	// most k entries, so a slack of n never runs out; a large pool
	// hands over to the bucket sort as soon as the moves so far exceed
	// refreshSlack per entry placed — at once on a shuffled order, never
	// when only a few bids moved.
	slack := n
	if n > insertionCutoff {
		if fresh {
			bucketOrder(order, key, aK, bK, bI)
			return true
		}
		slack = refreshSlack
	}
	moves := 0
	for k := 1; k < n; k++ {
		i, j := order[k], k
		ki := key[i]
		for ; j > 0; j-- {
			p := order[j-1]
			if kp := key[p]; kp < ki || (kp == ki && p < i) {
				break
			}
			order[j] = p
		}
		order[j] = i
		if moves += k - j; moves > slack*k {
			bucketOrder(order, key, aK, bK, bI)
			return true
		}
	}
	return false
}

// crowdLimit is how far one insertion may move a key before its bucket
// counts as crowded and is bucketed again, over its own key range.
const crowdLimit = 32

// bucketOrder is sortOrder for large pools, in expected O(M): it counts
// the keys into about one bucket each, with the counts in order, scatters
// the (key, index) pairs stably from index order into (bK, bI), and settles
// them there. MarketIndex lends act and the prefix sums past slot 0, which
// rebuild overwrites right after; bI then carries indices as floats (exact
// below 2⁵³). aK is written only once key has been read, so it may be key.
func bucketOrder[I int | int32, S int | int32 | float64](order []I, key, aK, bK []float64, bI []S) {
	bk := countBuckets(order, key)
	for i, k := range key {
		b := bk.of(k)
		p := order[b]
		order[b] = p + 1
		bK[p], bI[p] = k, S(i)
	}
	settle(bK, bI, aK, order, bk)
	for p, x := range bI {
		order[p] = I(x)
	}
}

// bucketer maps keys to buckets in key order: zero (either sign) to the
// first, +Inf to the last, and a positive finite key by its IEEE-754 bits,
// which order as unsigned integers, from the smallest positive key's up.
type bucketer struct {
	lo    uint64
	scale float64
	last  int
}

func (bk bucketer) of(k float64) int {
	switch {
	case k == 0:
		return 0
	case k > math.MaxFloat64:
		return bk.last
	}
	return 1 + int(float64(math.Float64bits(k)-bk.lo)*bk.scale)
}

// countBuckets spreads keys over as many buckets, and sets cnt[b] to bucket
// b's first slot in their bucketed order.
func countBuckets[I int | int32](cnt []I, keys []float64) bucketer {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, k := range keys {
		if k > 0 && k <= math.MaxFloat64 {
			u := math.Float64bits(k)
			lo, hi = min(lo, u), max(hi, u)
		}
	}
	bk := bucketer{lo, float64(len(keys)-3) / float64(max(hi-lo, 1)), len(keys) - 1}
	clear(cnt)
	for _, k := range keys {
		cnt[bk.of(k)]++
	}
	sum := I(0)
	for b, c := range cnt {
		cnt[b], sum = sum, sum+c
	}
	return bk
}

// settle insertion-sorts (k, x) by key alone: bk has bucketed them with
// equal keys in index order, which insertion keeps. A key that moves past
// more than crowdLimit others has met a crowded bucket, whose run is first
// bucketed again over its own range — stably, by scattering positions into
// f with the counts in cnt and gathering the pairs back — and settled.
func settle[I int | int32, S int | int32 | float64](k []float64, x []S, f []float64, cnt []I, bk bucketer) {
	for p := 1; p < len(k); p++ {
		v, y, q := k[p], x[p], p
		for ; q > 0 && k[q-1] > v; q-- {
			k[q], x[q] = k[q-1], x[q-1]
		}
		k[q], x[q] = v, y
		if p-q <= crowdLimit {
			continue
		}
		b, s, e := bk.of(v), q, p+1
		for s > 0 && bk.of(k[s-1]) == b {
			s--
		}
		for e < len(k) && bk.of(k[e]) == b {
			e++
		}
		rk, rx, rf, rc := k[s:e], x[s:e], f[s:e], cnt[s:e]
		sub := countBuckets(rc, rk)
		for j, v := range rk {
			b := sub.of(v)
			rf[rc[b]] = float64(j)
			rc[b]++
		}
		for i, j := range rf {
			rf[i], rc[i] = rk[int(j)], I(rx[int(j)])
		}
		for i := range rk {
			rk[i], rx[i] = rf[i], S(rc[i])
		}
		settle(rk, rx, rf, rc, sub)
		p = e - 1
	}
}

// rebuild re-derives act, the prefix sums, and the supply ceiling from
// the current bids. When force is false the sort is skipped if the
// existing order is still valid (the common case when only bid
// magnitudes, not activation ordering, changed between rounds). A bucket
// sort leaves the sorted keys in prefWD[1:], each read here just before
// its slot is overwritten; otherwise act gathers them through order.
func (ix *MarketIndex) rebuild(force bool) {
	bucketed := false
	if force || !ix.isSorted() {
		bucketed = sortOrder(ix.order, ix.key, force, ix.act, ix.prefWD[1:], ix.prefWB[1:])
		ix.sorts++
	}
	var wd, wb float64
	ix.finite = len(ix.order)
	for k, i := range ix.order {
		a := ix.prefWD[k+1]
		if !bucketed {
			a = ix.key[i]
		}
		ix.act[k] = a
		if math.IsInf(a, 1) && ix.finite == len(ix.order) {
			ix.finite = k
		}
		if d := ix.bids[i].Delta; d > 0 {
			wd += ix.watts[i] * d
			wb += ix.watts[i] * ix.bids[i].B
		}
		ix.prefWD[k+1] = wd
		ix.prefWB[k+1] = wb
	}
	ix.maxW = wd
	ix.dirty = false
}

// SetBid replaces participant i's bid. The change takes effect at the
// next Refresh (ClearInto refreshes automatically). Unchanged bids are
// detected and skipped, so static bidders in an interactive market cost
// nothing between rounds. An out-of-range index returns a typed
// *ParticipantRangeError with the index untouched.
func (ix *MarketIndex) SetBid(i int, b Bid) error {
	if i < 0 || i >= len(ix.bids) {
		return &ParticipantRangeError{Index: i, Len: len(ix.bids)}
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if ix.bids[i] == b {
		return nil
	}
	ix.bids[i] = b
	ix.key[i] = activationKey(b)
	ix.dirty = true
	return nil
}

// Refresh incorporates pending SetBid changes: it re-sorts only if the
// activation order changed and recomputes the prefix sums in O(M),
// allocating nothing.
func (ix *MarketIndex) Refresh() {
	if !ix.dirty {
		return
	}
	ix.rebuild(false)
}

// activeCount returns the number of participants whose activation price
// is ≤ q (the active prefix length), in O(log M).
func (ix *MarketIndex) activeCount(q float64) int {
	lo, hi := 0, len(ix.act)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.act[mid] <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SupplyW evaluates the aggregate supply S(q) in watts in O(log M).
func (ix *MarketIndex) SupplyW(q float64) float64 {
	k := ix.activeCount(q)
	if k == 0 {
		return 0
	}
	wb := ix.prefWB[k]
	if wb == 0 || q <= 0 {
		// Only fully willing (b = 0) participants are active at q ≤ 0,
		// so the withheld term vanishes in both cases.
		return ix.prefWD[k]
	}
	return ix.prefWD[k] - wb/q
}

// MaxSupplyW returns the aggregate supply ceiling ΣWΔ in watts.
func (ix *MarketIndex) MaxSupplyW() float64 { return ix.maxW }

// minPrice solves MClr exactly: the minimal price q′ with S(q′) ≥
// targetW, or a saturation price and feasible=false when even full
// supply falls short. Complexity O(log² M): an outer binary search over
// activation segments with an O(log M) supply evaluation per probe, then
// one closed-form division inside the located segment.
func (ix *MarketIndex) minPrice(targetW float64) (price float64, feasible bool) {
	if targetW <= 0 {
		return 0, true
	}
	if ix.maxW < targetW {
		return ix.saturationPrice(), false
	}
	if ix.SupplyW(0) >= targetW {
		return 0, true
	}
	// Find the first breakpoint whose supply meets the target. Supply is
	// continuous and non-decreasing, so the clearing price lies in the
	// segment ending at that breakpoint; if no breakpoint reaches the
	// target the price lies beyond the last activation.
	m := ix.finite
	lo, hi := 0, m
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.SupplyW(ix.act[mid]) >= targetW {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k := lo
	// Active prefix on the open segment below breakpoint k. Ties sort
	// adjacently, and k is minimal, so exactly the first k entries have
	// activation strictly below act[k].
	wd, wb := ix.prefWD[k], ix.prefWB[k]
	denom := wd - targetW
	if denom <= 0 {
		if k < m {
			// Numerical corner: the segment's ceiling equals the target;
			// the breakpoint itself clears (its activating participants
			// supply zero there).
			return ix.act[k], true
		}
		// target == maxW with withheld supply: saturation only in the
		// limit q → ∞; settle where the withheld amount rounds away,
		// like the bisection path's bracketing does.
		return ix.saturationPrice(), true
	}
	q := wb / denom
	// Clamp into the segment against floating-point drift: the price may
	// not fall below the last breakpoint whose supply was short, nor
	// above the breakpoint that met the target.
	if k > 0 && q < ix.act[k-1] {
		q = ix.act[k-1]
	}
	if k < m && q > ix.act[k] {
		q = ix.act[k]
	}
	return q, true
}

// saturationIterCap bounds the saturation doubling loops. Doubling from
// the 1e-6 floor to the 1e15 cap takes ⌈log₂(1e21)⌉ ≈ 70 iterations, so
// the cap can only fire ahead of the price cap when float pathologies
// (Wb ≫ WΔ keeping the withheld term above the 1e-9 threshold at any
// representable price) would otherwise spin the loop at a stuck q.
const saturationIterCap = 96

// saturationPrice doubles from the largest activation price until the
// withheld aggregate Wb/q is below 1e-9 W — the same saturation rule the
// bisection path uses for infeasible targets (price capped at 1e15, and
// the loop explicitly bounded by saturationIterCap).
func (ix *MarketIndex) saturationPrice() float64 {
	q := 1e-6
	if ix.finite > 0 {
		if a := ix.act[ix.finite-1]; a > q {
			q = a
		}
	}
	for iter := 0; ix.SupplyW(q) < ix.maxW-1e-9 && q < 1e15 && iter < saturationIterCap; iter++ {
		q *= 2
	}
	return q
}

// Clear solves MClr against the index's current bids, allocating a fresh
// result. See ClearInto for the allocation-free variant.
func (ix *MarketIndex) Clear(targetW float64) (*ClearingResult, error) {
	res := &ClearingResult{}
	if err := ix.ClearInto(res, targetW); err != nil {
		return nil, err
	}
	return res, nil
}

// ClearInto solves MClr against the index's current bids, writing the
// outcome into res. res.Reductions is reused when its capacity suffices,
// so steady-state clears perform zero heap allocations. Pending SetBid
// changes are refreshed first.
func (ix *MarketIndex) ClearInto(res *ClearingResult, targetW float64) error {
	if !(targetW <= 0 || targetW > 0) { // written so NaN fails
		return ErrNaNTarget
	}
	ix.Refresh()
	n := len(ix.bids)
	if cap(res.Reductions) >= n {
		res.Reductions = res.Reductions[:n]
	} else {
		res.Reductions = make([]float64, n)
	}
	res.Price = 0
	res.SuppliedW = 0
	res.TargetW = targetW
	res.Feasible = true
	res.PayoutRate = 0
	res.Rounds = 1
	res.Converged = true
	if targetW <= 0 {
		for i := range res.Reductions {
			res.Reductions[i] = 0
		}
		return nil
	}
	if n == 0 {
		return ErrNoParticipants
	}
	price, feasible := ix.minPrice(targetW)
	res.Price = price
	res.Feasible = feasible
	var supplied, total float64
	for i := range ix.bids {
		d := ix.bids[i].Supply(price)
		res.Reductions[i] = d
		supplied += ix.watts[i] * d
		total += d
	}
	res.SuppliedW = supplied
	res.PayoutRate = price * total
	return nil
}
