package core

import (
	"mpr/internal/perf"
)

// RationalBidder implements the MPR-INT bidding strategy of Section III-C:
// on each announced price q it computes the per-core reduction δ* that
// maximizes the user's net gain q·δ − C(δ) and encodes it as the bid
// b = q·(Δ − δ*), so that the supply function reproduces exactly δ* at
// price q.
type RationalBidder struct {
	// Cores scales the per-core model to the job's allocation.
	Cores float64
	// Model is the user's private cost model; it never leaves the bidder
	// (the market only sees the resulting bid parameters).
	Model *perf.CostModel
}

// RespondBid implements Bidder. The response is a pure function of
// (*Model, Cores, price): the per-core best response δ* depends on the
// model and the price alone, and bidFor scales it by Cores. respondBids
// relies on this to solve δ* once for bidders whose models are equal.
func (r *RationalBidder) RespondBid(price float64) Bid {
	return r.bidFor(price, r.Model.GainMaximizingReduction(price))
}

// bidFor encodes the per-core reduction dStarPC the user wants to supply
// at price as the job's bid.
func (r *RationalBidder) bidFor(price, dStarPC float64) Bid {
	maxPC := r.Model.Profile.MaxReduction()
	delta := r.Cores * maxPC
	if delta <= 0 {
		return Bid{}
	}
	dStar := r.Cores * dStarPC
	b := price * (delta - dStar)
	if b < 0 {
		b = 0
	}
	return Bid{Delta: delta, B: b}
}

// StaticBidder wraps a fixed bid as a Bidder, for mixing MPR-STAT users
// into an interactive market (partial participation studies).
type StaticBidder struct{ Fixed Bid }

// RespondBid implements Bidder by ignoring the price.
func (s *StaticBidder) RespondBid(float64) Bid { return s.Fixed }

// CooperativeBid devises the paper's cooperative static bid for MPR-STAT
// (Fig. 4(a)): the largest supply whose curve stays below the user's
// bidding reference at every price, guaranteeing a non-negative net gain
// over the entire price range. Formally b = max_q q·(Δ − δ_ref(q)), so
// that δ_bid(q) = Δ − b/q ≤ δ_ref(q) for all q.
func CooperativeBid(cores float64, model *perf.CostModel) Bid {
	b, _ := cooperativePerCore(model)
	return scaleCooperative(cores, model.Profile.MaxReduction(), b)
}

// cooperativeSamples is how many prices in (0, q_sat] the cooperative
// bid's maximum is taken over.
const cooperativeSamples = 512

// cooperativePerCore solves the cooperative bid's reluctance b for one
// core of the model, as the maximum of q·(Δ − δ_ref(q)) over
// cooperativeSamples prices, and reports how many of them it evaluated.
// It never sees the job's size: a job's bid is this b and the profile's
// per-core Δ, both times its cores (scaleCooperative).
func cooperativePerCore(model *perf.CostModel) (b float64, evaluated int) {
	var w perf.ReferenceWalker
	return cooperativeScan(&w, model)
}

// cooperativeScan is cooperativePerCore on the caller's walker, which it
// Resets to model. The ascending prices share the walker, so each one
// re-evaluates UnitCost only below the first bisection step its price
// changes (perf.ReferenceWalker), bit for bit the one-shot bisection.
//
// A sample is skipped, without reading δ_ref at all, when q·(Δ − r) ≤ b,
// r being the last reduction computed at a lower price (0 before the
// first). The skip is exact: ReferenceReduction is non-decreasing in q —
// for a fixed midpoint its test UnitCost(mid) ≤ q can only turn true as q
// grows, so the bisection's bracket at a higher price never lies below the
// one at a lower price, and its early return gives the largest value, Δ.
// Rounded subtraction and multiplication by q > 0 are monotone too, so the
// skipped sample's q·(Δ − δ_ref(q)) is at most q·(Δ − r) ≤ b and could not
// have raised b: the result is the full scan's bit for bit. (At q ≤ 0,
// δ_ref is 0 = r and the bound is the sample's value itself.) A NaN bound
// is never ≤ b, so a NaN model is scanned in full.
func cooperativeScan(w *perf.ReferenceWalker, model *perf.CostModel) (b float64, evaluated int) {
	maxPC := model.Profile.MaxReduction()
	if maxPC <= 0 {
		return 0, 0
	}
	w.Reset(model)
	// Beyond the saturation price q_sat = UnitCost(Δ) the reference
	// supplies the full Δ and the constraint term q·(Δ−δ_ref) vanishes,
	// so the maximum lies in (0, q_sat].
	qSat := w.SaturationPrice()
	ref := 0.0
	for i := 1; i <= cooperativeSamples; i++ {
		q := qSat * float64(i) / cooperativeSamples
		if q*(maxPC-ref) <= b {
			continue
		}
		ref = w.Reduction(q)
		evaluated++
		if v := q * (maxPC - ref); v > b {
			b = v
		}
	}
	return b, evaluated
}

// scaleCooperative sizes a per-core cooperative bid (maxPC, b) to a job
// of cores cores.
func scaleCooperative(cores, maxPC, b float64) Bid {
	delta := cores * maxPC
	if delta <= 0 {
		return Bid{}
	}
	return Bid{Delta: delta, B: b * cores}
}

// CooperativeBids derives cooperative bids for a batch of jobs, solving
// each distinct cost model once: Bid(cores, model) equals
// CooperativeBid(cores, model) bit for bit, but a model equal (as a
// value: same profile pointer, α and shape) to one already solved reuses
// its per-core b. Models are few — a handful of profiles times a handful
// of α — so they are found by a linear scan; when every model differs
// (per-job cost error) nothing matches and each Bid is one solve, as
// without it. The zero value is ready to use; it is not safe for
// concurrent use.
type CooperativeBids struct {
	solved []coopClass
}

// coopClass is one solved model and its per-core reluctance.
type coopClass struct {
	model perf.CostModel
	b     float64
}

// Bid returns CooperativeBid(cores, model).
func (c *CooperativeBids) Bid(cores float64, model *perf.CostModel) Bid {
	maxPC := model.Profile.MaxReduction()
	for i := range c.solved {
		if c.solved[i].model == *model {
			return scaleCooperative(cores, maxPC, c.solved[i].b)
		}
	}
	b, _ := cooperativePerCore(model)
	c.solved = append(c.solved, coopClass{*model, b})
	return scaleCooperative(cores, maxPC, b)
}

// Solves reports how many distinct models have been solved since the
// last Reset.
func (c *CooperativeBids) Solves() int { return len(c.solved) }

// Reset forgets every solved model, keeping the storage.
func (c *CooperativeBids) Reset() { c.solved = c.solved[:0] }

// ConservativeBid scales the cooperative bid's reluctance up by factor
// (> 1): the user offers less reduction than its reference at every price,
// keeping extra margin for cost-estimation error (Fig. 4(a), Section III-F).
func ConservativeBid(cores float64, model *perf.CostModel, factor float64) Bid {
	if factor < 1 {
		factor = 1
	}
	b := CooperativeBid(cores, model)
	b.B *= factor
	return b
}

// DeficientBid scales the cooperative bid's reluctance down by factor
// (< 1): the user over-supplies at low prices and can incur a negative net
// gain for part of the price range — the cautionary strategy of Fig. 4(a).
func DeficientBid(cores float64, model *perf.CostModel, factor float64) Bid {
	if factor > 1 {
		factor = 1
	}
	if factor < 0 {
		factor = 0
	}
	b := CooperativeBid(cores, model)
	b.B *= factor
	return b
}
