package core

import (
	"fmt"
	"math"
)

// StreamMarket is the continuously-clearing MClr engine: where
// MarketIndex amortizes batch rebuilds (any activation-order change
// costs an O(M) re-sort plus an O(M) prefix-sum rebuild), the
// stream market keeps the participants in an order-statistic structure
// keyed by activation price, so a single bid insert, update, or removal
// — including the re-clear that follows it — is O(log M) with zero
// steady-state heap allocations. Building it is O(M), like the index.
//
// The structure is an implicit treap over (activation price, participant
// index), arena-backed with exactly one node slot per participant (the
// arena slot *is* the participant index, so no free list is needed).
// Each node carries its own weighted terms wΔ = W·Δ and wb = W·b and the
// subtree aggregates (ΣwΔ, Σwb). Treap priorities are a fixed
// hash of the participant index (splitmix64), which makes the tree shape
// — and therefore the floating-point summation order of the aggregates —
// a deterministic function of the update history alone: replaying the
// same deltas reproduces every published price bit for bit. Against the
// batch MarketIndex (whose sums fold in activation order) prices agree
// to the harness float tolerance, not bit-identically; the differential
// and metamorphic suites in internal/check enforce that bound after
// every prefix of randomized update sequences. That is why no market
// round clears here: MPR-INT's rounds clear through Iterate's index, and
// the agentproto manager keeps a StreamMarket only as a per-bid price
// feed beside them.
//
// Clearing uses the same closed-form segment mathematics as MarketIndex:
// the aggregate supply over the active prefix {i : aᵢ ≤ q} is
// S(q) = ΣwΔ − Σwb/q, and the minimal clearing price solves exactly per
// activation segment as q′ = Σwb/(ΣwΔ − target). The stream market finds
// the segment in a single ordered descent — at each node the left-subtree
// aggregates extend the accumulated prefix, giving the supply at that
// node's breakpoint in O(1) — so a full re-clear is O(log M) expected,
// not O(log² M) like the batch index's breakpoint bisection.
//
// A StreamMarket is not safe for concurrent use.
type StreamMarket struct {
	target float64 // current power-reduction target in watts

	watts  []float64 // WattsPerCore per slot
	bids   []Bid     // current bid per slot
	active []bool    // slot participates (false after Remove)
	nodes  []streamNode

	root int32

	price    float64 // cached clearing price for target
	feasible bool    // cached feasibility for target
}

// streamNode is one arena slot of the treap. Slot i always describes
// participant i; it is linked into the tree only while the participant
// is active with Δ > 0 (a Δ = 0 bid can never supply and would sort at
// +Inf contributing nothing, exactly as MarketIndex pushes such entries
// past every segment).
type streamNode struct {
	key         float64 // activation price b/Δ
	wd, wb      float64 // W·Δ, W·b for this participant
	left, right int32   // arena indices; -1 = nil

	// Subtree aggregates, folded left-to-right (left + self + right) so
	// the summation order is fixed by the tree shape.
	swd, swb float64
}

const streamNil = int32(-1)

// streamPrio is the fixed treap priority of participant i: splitmix64 of
// the index. Deterministic and index-only, so the tree shape never
// depends on bid values or wall-clock state.
func streamPrio(i int32) uint64 {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ParticipantDelta is one streaming market update: a bid replacement for
// an existing slot, an append of a new participant (Index == Len()), or
// a removal. WattsPerCore == 0 keeps the slot's current coefficient; it
// must be positive when appending.
type ParticipantDelta struct {
	// Index addresses the participant slot; Index == Len() appends.
	Index int
	// Bid is the new supply function (ignored when Remove is set).
	Bid Bid
	// WattsPerCore replaces the slot's power coefficient when positive;
	// zero keeps the current value. Required (positive) on an append.
	WattsPerCore float64
	// Remove deactivates the slot: it supplies nothing and clears to a
	// zero reduction until a later Apply re-activates it with a new bid.
	Remove bool
}

// ParticipantRangeError reports a participant index outside a market's
// slot range — the typed form of what used to be an index panic.
type ParticipantRangeError struct {
	Index int // offending index
	Len   int // number of participant slots
}

func (e *ParticipantRangeError) Error() string {
	return fmt.Sprintf("core: participant index %d out of range [0,%d)", e.Index, e.Len)
}

// NewStreamMarket validates the participants and builds the streaming
// market over their current bids in O(M) — the treap is constructed from
// the activation order (see build), not grown by M inserts — clearing once
// against targetW. The market keeps its own copy of the bids; later changes
// to the participants are not seen unless applied via Apply.
func NewStreamMarket(ps []*Participant, targetW float64) (*StreamMarket, error) {
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	n := len(ps)
	sm := &StreamMarket{
		watts:  make([]float64, n),
		bids:   make([]Bid, n),
		active: make([]bool, n),
		nodes:  make([]streamNode, n),
		root:   streamNil,
	}
	key, order := make([]float64, n), make([]int32, n)
	for i, p := range ps {
		sm.watts[i] = p.WattsPerCore
		sm.bids[i] = p.Bid
		sm.active[i] = true
		sm.derive(int32(i))
		key[i], order[i] = activationKey(p.Bid), int32(i)
	}
	sm.build(key, order)
	if _, _, err := sm.SetTarget(targetW); err != nil {
		return nil, err
	}
	return sm, nil
}

// build links every derived slot of an empty tree at once, in O(M). The
// treap's shape is a function of the (key, index) order and the fixed
// priorities alone, and its aggregates fold by shape, so the Cartesian tree
// on streamPrio of the slots in the index's order is, bit for bit, what an
// insert per slot grows. key and order are consumed: sort scratch, then the
// construction's stack (the right spine) over the part of order already
// read. A node is pulled once, on leaving the stack with its subtree final.
func (sm *StreamMarket) build(key []float64, order []int32) {
	var bK []float64
	var bI []int32
	if len(key) > insertionCutoff {
		bK, bI = make([]float64, len(key)), make([]int32, len(key))
	}
	sortOrder(order, key, true, key, bK, bI)
	top := 0
	for _, i := range order {
		if !sm.linked(i) {
			continue // Δ = 0: sorted last, never linked
		}
		last, prio := streamNil, streamPrio(i)
		for ; top > 0 && streamPrio(order[top-1]) < prio; top-- {
			last = order[top-1]
			sm.pull(last)
		}
		sm.nodes[i].left = last
		if top > 0 {
			sm.nodes[order[top-1]].right = i
		}
		order[top] = i
		top++
	}
	for ; top > 0; top-- {
		sm.root = order[top-1] // last off is the root
		sm.pull(sm.root)
	}
}

// Len returns the number of participant slots (active or removed).
func (sm *StreamMarket) Len() int { return len(sm.bids) }

// Price returns the cached clearing price for the current target — the
// price after the most recent Apply/SetTarget — and its feasibility.
func (sm *StreamMarket) Price() (price float64, feasible bool) {
	return sm.price, sm.feasible
}

// Target returns the current power-reduction target in watts.
func (sm *StreamMarket) Target() float64 { return sm.target }

// MaxSupplyW returns the aggregate supply ceiling ΣWΔ in watts over the
// active participants.
func (sm *StreamMarket) MaxSupplyW() float64 {
	if sm.root == streamNil {
		return 0
	}
	return sm.nodes[sm.root].swd
}

// SetTarget re-clears the market against a new power-reduction target in
// O(log M) and returns the new price (NaN: ErrNaNTarget, nothing changed).
func (sm *StreamMarket) SetTarget(targetW float64) (price float64, feasible bool, err error) {
	if !(targetW <= 0 || targetW > 0) { // written so NaN fails
		return sm.price, sm.feasible, ErrNaNTarget
	}
	sm.target = targetW
	sm.recompute()
	return sm.price, sm.feasible, nil
}

// Apply incorporates one participant delta — bid update, append, or
// removal — and incrementally re-clears the market, all in O(log M) with
// no steady-state heap allocation (appends beyond the arena's capacity
// grow it, like any slice). The returned price is the market's new
// clearing price for the current target. Out-of-range indices return a
// *ParticipantRangeError with the market state untouched.
func (sm *StreamMarket) Apply(d ParticipantDelta) (price float64, feasible bool, err error) {
	n := len(sm.bids)
	if d.Index < 0 || d.Index > n || (d.Index == n && d.Remove) {
		return sm.price, sm.feasible, &ParticipantRangeError{Index: d.Index, Len: n}
	}
	if !(d.WattsPerCore >= 0 && d.WattsPerCore <= math.MaxFloat64) { // written so NaN fails
		return sm.price, sm.feasible, fmt.Errorf("core: watts-per-core must be finite and positive, got %v", d.WattsPerCore)
	}
	if !d.Remove {
		if err := d.Bid.Validate(); err != nil {
			return sm.price, sm.feasible, err
		}
	}
	if d.Index == n { // append a new participant slot
		if d.WattsPerCore == 0 {
			return sm.price, sm.feasible, fmt.Errorf("core: appending participant %d requires a positive watts-per-core", d.Index)
		}
		sm.watts = append(sm.watts, d.WattsPerCore)
		sm.bids = append(sm.bids, d.Bid)
		sm.active = append(sm.active, true)
		sm.nodes = append(sm.nodes, streamNode{})
		sm.link(int32(d.Index))
		sm.recompute()
		return sm.price, sm.feasible, nil
	}
	i := int32(d.Index)
	watts := sm.watts[i]
	if d.WattsPerCore > 0 {
		watts = d.WattsPerCore
	}
	if d.Remove {
		if !sm.active[i] {
			return sm.price, sm.feasible, nil
		}
		sm.unlink(i)
		sm.active[i] = false
		sm.recompute()
		return sm.price, sm.feasible, nil
	}
	if sm.active[i] && watts == sm.watts[i] && sm.bids[i] == d.Bid {
		// Unchanged bid: static rebidders between rounds cost nothing.
		return sm.price, sm.feasible, nil
	}
	sm.unlink(i)
	sm.watts[i] = watts
	sm.bids[i] = d.Bid
	sm.active[i] = true
	sm.link(i)
	sm.recompute()
	return sm.price, sm.feasible, nil
}

// ClearInto materializes the full clearing outcome at the current target
// into res, reusing res.Reductions when its capacity suffices (the same
// zero-allocation steady-state contract as MarketIndex.ClearInto). The
// O(M) cost is the per-participant materialization, not a re-solve: the
// price is the cached O(log M) streaming clear.
func (sm *StreamMarket) ClearInto(res *ClearingResult) error {
	n := len(sm.bids)
	if cap(res.Reductions) >= n {
		res.Reductions = res.Reductions[:n]
	} else {
		res.Reductions = make([]float64, n)
	}
	res.Price = 0
	res.SuppliedW = 0
	res.TargetW = sm.target
	res.Feasible = true
	res.PayoutRate = 0
	res.Rounds = 1
	res.Converged = true
	if sm.target <= 0 {
		for i := range res.Reductions {
			res.Reductions[i] = 0
		}
		return nil
	}
	if n == 0 {
		return ErrNoParticipants
	}
	res.Price = sm.price
	res.Feasible = sm.feasible
	var total float64
	for i := range sm.bids {
		var d float64
		if sm.active[i] {
			d = sm.bids[i].Supply(sm.price)
		}
		res.Reductions[i] = d
		res.SuppliedW += sm.watts[i] * d
		total += d
	}
	res.PayoutRate = sm.price * total
	return nil
}

// SupplyW evaluates the aggregate supply S(q) in watts over the active
// participants in O(log M).
func (sm *StreamMarket) SupplyW(q float64) float64 {
	var wd, wb float64
	t := sm.root
	for t != streamNil {
		nd := &sm.nodes[t]
		if nd.key <= q {
			if l := nd.left; l != streamNil {
				wd += sm.nodes[l].swd
				wb += sm.nodes[l].swb
			}
			wd += nd.wd
			wb += nd.wb
			t = nd.right
		} else {
			t = nd.left
		}
	}
	if wb == 0 || q <= 0 {
		// Only fully willing (b = 0) participants are active at q ≤ 0,
		// so the withheld term vanishes in both cases.
		return wd
	}
	return wd - wb/q
}

// recompute re-solves the cached (price, feasible) pair for the current
// target. O(log M) expected.
func (sm *StreamMarket) recompute() {
	sm.price, sm.feasible = sm.solvePrice(sm.target)
}

// solvePrice is the streaming MClr solve: the minimal price q′ with
// S(q′) ≥ targetW, or a saturation price and feasible=false when even
// full supply falls short — the same contract as MarketIndex.minPrice,
// found in one ordered treap descent instead of a breakpoint bisection.
func (sm *StreamMarket) solvePrice(targetW float64) (price float64, feasible bool) {
	if targetW <= 0 {
		return 0, true
	}
	maxW := sm.MaxSupplyW()
	if maxW < targetW {
		return sm.saturationPrice(), false
	}
	if sm.SupplyW(0) >= targetW {
		return 0, true
	}
	// Descend for the minimal breakpoint whose supply meets the target.
	// At node t, accWD/accWB hold the aggregates of every entry ordered
	// strictly before t's subtree; adding t's left subtree gives the
	// prefix strictly below t's breakpoint, whose withheld term at q =
	// t.key yields the supply there (entries activating exactly at t.key
	// contribute zero at their own activation price). Supply is
	// non-decreasing along the breakpoint order, so the descent below
	// finds the leftmost satisfying node, exactly like the batch binary
	// search finds the minimal index.
	var accWD, accWB float64
	found := streamNil
	prevKey := 0.0 // key of the found node's in-order predecessor
	hasPrev := false
	t := sm.root
	for t != streamNil {
		nd := &sm.nodes[t]
		wd, wb := accWD, accWB
		if l := nd.left; l != streamNil {
			wd += sm.nodes[l].swd
			wb += sm.nodes[l].swb
		}
		sup := wd
		if wb > 0 && nd.key > 0 {
			sup = wd - wb/nd.key
		}
		if sup >= targetW {
			found = t
			t = nd.left
		} else {
			accWD = wd + nd.wd
			accWB = wb + nd.wb
			prevKey = nd.key
			hasPrev = true
			t = nd.right
		}
	}
	denom := accWD - targetW
	if denom <= 0 {
		if found != streamNil {
			// Numerical corner: the segment's ceiling equals the target;
			// the breakpoint itself clears (its activating participants
			// supply zero there).
			return sm.nodes[found].key, true
		}
		// target == maxW with withheld supply: saturation only in the
		// limit q → ∞; settle where the withheld amount rounds away.
		return sm.saturationPrice(), true
	}
	q := accWB / denom
	// Clamp into the segment against floating-point drift: the price may
	// not fall below the last breakpoint whose supply was short, nor
	// above the breakpoint that met the target.
	if hasPrev && q < prevKey {
		q = prevKey
	}
	if found != streamNil && q > sm.nodes[found].key {
		q = sm.nodes[found].key
	}
	return q, true
}

// saturationPrice doubles from the largest activation price until the
// withheld aggregate Wb/q is below 1e-9 W, capped at 1e15 and bounded by
// saturationIterCap — the same saturation rule as the batch index.
func (sm *StreamMarket) saturationPrice() float64 {
	q := 1e-6
	if t := sm.maxKey(); t > q {
		q = t
	}
	maxW := sm.MaxSupplyW()
	for iter := 0; sm.SupplyW(q) < maxW-1e-9 && q < 1e15 && iter < saturationIterCap; iter++ {
		q *= 2
	}
	return q
}

// maxKey returns the largest activation price in the tree (0 when empty).
func (sm *StreamMarket) maxKey() float64 {
	t := sm.root
	if t == streamNil {
		return 0
	}
	for sm.nodes[t].right != streamNil {
		t = sm.nodes[t].right
	}
	return sm.nodes[t].key
}

// --- treap plumbing ------------------------------------------------------

// link (re)derives slot i's node fields from the current bid and inserts
// it into the tree when it can ever supply (Δ > 0).
func (sm *StreamMarket) link(i int32) {
	if sm.derive(i) {
		sm.pull(i)
		sm.root = sm.insert(sm.root, i)
	}
}

// derive sets slot i's node fields from its current bid — a leaf, not yet
// linked — and reports whether it belongs in the tree.
func (sm *StreamMarket) derive(i int32) bool {
	nd, b := &sm.nodes[i], sm.bids[i]
	if b.Delta > 0 {
		nd.key, nd.wd, nd.wb = b.B/b.Delta, sm.watts[i]*b.Delta, sm.watts[i]*b.B
		nd.left, nd.right = streamNil, streamNil
	}
	return b.Delta > 0
}

// linked reports whether slot i is in the tree (Apply unlinks it first).
func (sm *StreamMarket) linked(i int32) bool {
	return sm.active[i] && sm.bids[i].Delta > 0
}

// unlink detaches slot i from the tree if present.
func (sm *StreamMarket) unlink(i int32) {
	if sm.linked(i) {
		sm.root = sm.delete(sm.root, i)
	}
}

// less orders nodes by (activation price, participant index); the index
// tie-break makes the in-order sequence — and with it every aggregate's
// summation order — unique for a given set of (index, bid) pairs.
func (sm *StreamMarket) less(a, b int32) bool {
	ka, kb := sm.nodes[a].key, sm.nodes[b].key
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// pull re-derives t's subtree aggregates from its children, folding
// left + self + right so the summation order is the tree shape's.
func (sm *StreamMarket) pull(t int32) {
	nd := &sm.nodes[t]
	swd, swb := nd.wd, nd.wb
	if l := nd.left; l != streamNil {
		ld := &sm.nodes[l]
		swd = ld.swd + swd
		swb = ld.swb + swb
	}
	if r := nd.right; r != streamNil {
		rd := &sm.nodes[r]
		swd += rd.swd
		swb += rd.swb
	}
	nd.swd, nd.swb = swd, swb
}

// insert adds node n (fields already derived) under t, returning the new
// subtree root. Expected O(log M), no allocation.
func (sm *StreamMarket) insert(t, n int32) int32 {
	if t == streamNil {
		return n
	}
	if streamPrio(n) > streamPrio(t) {
		l, r := sm.splitAt(t, n)
		sm.nodes[n].left, sm.nodes[n].right = l, r
		sm.pull(n)
		return n
	}
	if sm.less(n, t) {
		sm.nodes[t].left = sm.insert(sm.nodes[t].left, n)
	} else {
		sm.nodes[t].right = sm.insert(sm.nodes[t].right, n)
	}
	sm.pull(t)
	return t
}

// splitAt splits subtree t around node n's (key, index) position into
// (< n, > n) halves. n itself is never inside t.
func (sm *StreamMarket) splitAt(t, n int32) (int32, int32) {
	if t == streamNil {
		return streamNil, streamNil
	}
	if sm.less(t, n) {
		l, r := sm.splitAt(sm.nodes[t].right, n)
		sm.nodes[t].right = l
		sm.pull(t)
		return t, r
	}
	l, r := sm.splitAt(sm.nodes[t].left, n)
	sm.nodes[t].left = r
	sm.pull(t)
	return l, t
}

// delete removes node n from subtree t, returning the new subtree root.
func (sm *StreamMarket) delete(t, n int32) int32 {
	if t == streamNil {
		return streamNil
	}
	if t == n {
		return sm.merge(sm.nodes[t].left, sm.nodes[t].right)
	}
	if sm.less(n, t) {
		sm.nodes[t].left = sm.delete(sm.nodes[t].left, n)
	} else {
		sm.nodes[t].right = sm.delete(sm.nodes[t].right, n)
	}
	sm.pull(t)
	return t
}

// merge joins two ordered subtrees (every key in a precedes b).
func (sm *StreamMarket) merge(a, b int32) int32 {
	if a == streamNil {
		return b
	}
	if b == streamNil {
		return a
	}
	if streamPrio(a) > streamPrio(b) {
		sm.nodes[a].right = sm.merge(sm.nodes[a].right, b)
		sm.pull(a)
		return a
	}
	sm.nodes[b].left = sm.merge(a, sm.nodes[b].left)
	sm.pull(b)
	return b
}

// depth returns the current tree height — exported to tests only through
// the white-box suite; expected O(log M) by the treap's priority hash.
func (sm *StreamMarket) depth() int {
	var walk func(t int32) int
	walk = func(t int32) int {
		if t == streamNil {
			return 0
		}
		l := walk(sm.nodes[t].left)
		r := walk(sm.nodes[t].right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return walk(sm.root)
}

// checkInvariants validates the treap ordering, heap property, and
// aggregate consistency — the white-box test hook.
func (sm *StreamMarket) checkInvariants() error {
	var walk func(t int32, lo, hi float64) (float64, float64, error)
	walk = func(t int32, lo, hi float64) (float64, float64, error) {
		if t == streamNil {
			return 0, 0, nil
		}
		nd := &sm.nodes[t]
		if !sm.linked(t) {
			return 0, 0, fmt.Errorf("node %d in the tree but its slot is inactive or Δ = 0", t)
		}
		if nd.key < lo || nd.key > hi {
			return 0, 0, fmt.Errorf("node %d key %v outside (%v, %v)", t, nd.key, lo, hi)
		}
		if l := nd.left; l != streamNil {
			if streamPrio(l) > streamPrio(t) {
				return 0, 0, fmt.Errorf("heap violation at %d/%d", t, l)
			}
			if !sm.less(l, t) {
				return 0, 0, fmt.Errorf("order violation at %d/%d", t, l)
			}
		}
		if r := nd.right; r != streamNil {
			if streamPrio(r) > streamPrio(t) {
				return 0, 0, fmt.Errorf("heap violation at %d/%d", t, r)
			}
			if !sm.less(t, r) {
				return 0, 0, fmt.Errorf("order violation at %d/%d", t, r)
			}
		}
		lwd, lwb, err := walk(nd.left, lo, nd.key)
		if err != nil {
			return 0, 0, err
		}
		rwd, rwb, err := walk(nd.right, nd.key, hi)
		if err != nil {
			return 0, 0, err
		}
		swd := lwd + nd.wd + rwd
		swb := lwb + nd.wb + rwb
		if math.Abs(swd-nd.swd) > 1e-6*(1+math.Abs(swd)) || math.Abs(swb-nd.swb) > 1e-6*(1+math.Abs(swb)) {
			return 0, 0, fmt.Errorf("node %d aggregates (%v, %v), want (%v, %v)", t, nd.swd, nd.swb, swd, swb)
		}
		return nd.swd, nd.swb, nil
	}
	_, _, err := walk(sm.root, math.Inf(-1), math.Inf(1))
	return err
}
