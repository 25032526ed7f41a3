package core

import (
	"math"

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
// model and the price alone, and bidFor scales it by Cores. bidClasses
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
// cooperativeSamples prices, and reports how many of them it bisected.
// It never sees the job's size: a job's bid is this b and the profile's
// per-core Δ, both times its cores (scaleCooperative).
//
// Each sample's exact reference δ°(q) (referenceRoot) bounds what its
// bisection can return, so a sample is bisected only while its bound
// q·(Δ − max(δ°(q) − 2e-9, 0)) exceeds the running b: the largest bound
// first, then the others in price order. The bound is exact:
//
//   - ReferenceReduction keeps a computed UnitCost(hi) > q (or hi = Δ)
//     and stops at hi − lo ≤ 1e-9. UnitCost is increasing and computed
//     within a few ulps, so lo ≥ δ°(q) − 1e-9 − O(ulp) ≥ δ°(q) − 2e-9.
//   - Rounded subtraction and multiplication by q > 0 are monotone, so a
//     sample's computed q·(Δ − lo) is at most its bound.
//   - Hence a sample whose bound is ≤ b cannot raise b, and which
//     samples get bisected does not change the maximum: the result is
//     the full 512-sample scan's bit for bit.
//
// The ulps need UnitCost and the root free of overflow and underflow, so
// the bound is used only when q_sat and c (rootScale) lie in
// [1e-150, 1e150]. Otherwise, and for a NaN model, every bound is +Inf
// and the same loop is the full scan.
func cooperativePerCore(model *perf.CostModel) (b float64, evaluated int) {
	maxPC := model.Profile.MaxReduction()
	if maxPC <= 0 {
		return 0, 0
	}
	// Beyond the saturation price q_sat = UnitCost(Δ) the reference
	// supplies the full Δ and the constraint term q·(Δ−δ_ref) vanishes,
	// so the maximum lies in (0, q_sat].
	qSat := model.UnitCost(maxPC)
	price := func(i int) float64 { return qSat * float64(i+1) / cooperativeSamples }
	c := rootScale(model)
	bounded := qSat >= 1e-150 && qSat <= 1e150 && c >= 1e-150 && c <= 1e150
	var bound [cooperativeSamples]float64
	top := 0
	for i := range bound {
		bound[i] = math.Inf(1)
		if bounded {
			q := price(i)
			bound[i] = q * (maxPC - max(referenceRoot(model.Shape, c, q)-2e-9, 0))
		}
		if bound[i] > bound[top] {
			top = i
		}
	}
	sample := func(i int) {
		q := price(i)
		evaluated++
		if v := q * (maxPC - model.ReferenceReduction(q)); v > b {
			b = v
		}
	}
	sample(top)
	for i := range bound {
		if i != top && !(bound[i] <= b) {
			sample(i)
		}
	}
	return b, evaluated
}

// rootScale is the scale c of the model's unit cost: with EE(δ) =
// s·δ/(1 − δ), UnitCost(δ) is c/(1 − δ) for a linear cost (c = α·s) and
// c·δ/(1 − δ)² for a quadratic one (c = α·s²).
func rootScale(model *perf.CostModel) float64 {
	c := model.Alpha * model.Profile.Sens
	if model.Shape == perf.CostQuadratic {
		c *= model.Profile.Sens
	}
	return c
}

// referenceRoot returns δ°(q), the exact reduction whose unit cost is q:
// 1 − c/q for a linear cost and, for a quadratic one, the smaller root of
// q·δ² − (2q + c)·δ + q = 0, written so that nothing cancels.
func referenceRoot(shape perf.CostShape, c, q float64) float64 {
	if shape == perf.CostQuadratic {
		return 2 * q / (2*q + c + math.Sqrt(c*(4*q+c)))
	}
	return 1 - c/q
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
