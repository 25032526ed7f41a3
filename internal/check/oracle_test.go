package check

import (
	"math"
	"strings"
	"testing"

	"mpr/internal/core"
)

// The oracle tests corrupt known-good results field by field and demand a
// rejection: a verification harness whose oracle accepts garbage proves
// nothing by passing.

func oraclePool(t *testing.T) ([]*core.Participant, float64, *core.ClearingResult) {
	t.Helper()
	g := NewGen(0x0c1e)
	ps := g.Pool(24)
	target := 0.5 * MaxSupplyW(ps)
	res, err := core.Clear(ps, target)
	if err != nil {
		t.Fatal(err)
	}
	return ps, target, res
}

func TestCheckClearingAcceptsValid(t *testing.T) {
	ps, target, res := oraclePool(t)
	if err := CheckClearing(ps, target, res); err != nil {
		t.Fatalf("valid clearing rejected: %v", err)
	}
}

func TestCheckClearingRejectsCorruption(t *testing.T) {
	ps, target, good := oraclePool(t)
	cases := []struct {
		name    string
		corrupt func(r *core.ClearingResult)
		wantMsg string
	}{
		{"nan price", func(r *core.ClearingResult) { r.Price = math.NaN() }, "non-finite"},
		{"negative price", func(r *core.ClearingResult) { r.Price = -1 }, "negative price"},
		{"runaway price", func(r *core.ClearingResult) { r.Price = 1e19 }, "saturation bound"},
		{"negative reduction", func(r *core.ClearingResult) { r.Reductions[0] = -0.5 }, "negative reduction"},
		{"reduction above delta", func(r *core.ClearingResult) {
			for i, p := range ps {
				if p.Bid.Delta > 0 {
					r.Reductions[i] = p.Bid.Delta * 2
					return
				}
			}
		}, "exceeds"},
		{"supplied bookkeeping", func(r *core.ClearingResult) { r.SuppliedW *= 1.5 }, "SuppliedW"},
		{"payout bookkeeping", func(r *core.ClearingResult) { r.PayoutRate += 7 }, "PayoutRate"},
		{"target echo", func(r *core.ClearingResult) { r.TargetW += 1 }, "TargetW"},
		{"shape", func(r *core.ClearingResult) { r.Reductions = r.Reductions[:1] }, "reductions for"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *good
			bad.Reductions = append([]float64(nil), good.Reductions...)
			c.corrupt(&bad)
			err := CheckClearing(ps, target, &bad)
			if err == nil {
				t.Fatal("corrupted result accepted")
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Errorf("error %q does not mention %q", err, c.wantMsg)
			}
		})
	}
}

// The minimality probe: a feasible price far above the true clearing
// price — with reductions and bookkeeping recomputed consistently, so
// only minimality distinguishes it — must be rejected.
func TestCheckClearingRejectsNonMinimalPrice(t *testing.T) {
	ps, target, good := oraclePool(t)
	bad := &core.ClearingResult{
		Price:      good.Price * 4,
		Reductions: make([]float64, len(ps)),
		TargetW:    target,
		Feasible:   true,
		Rounds:     1,
		Converged:  true,
	}
	var total float64
	for i, p := range ps {
		bad.Reductions[i] = p.Bid.Supply(bad.Price)
		bad.SuppliedW += p.WattsPerCore * bad.Reductions[i]
		total += bad.Reductions[i]
	}
	bad.PayoutRate = bad.Price * total
	err := CheckClearing(ps, target, bad)
	if err == nil {
		t.Fatal("overpriced but self-consistent clearing accepted")
	}
	if !strings.Contains(err.Error(), "not minimal") {
		t.Errorf("error %q does not mention minimality", err)
	}
}

func TestCheckAllocationRejectsCorruption(t *testing.T) {
	g := NewGen(0x0c1f)
	ps, _, _ := g.CostPool(12)
	var capW float64
	for _, p := range ps {
		capW += p.WattsPerCore * p.MaxReduction()
	}
	target := 0.4 * capW
	opt, err := core.SolveOPT(ps, target, core.OPTDual)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAllocation(ps, target, opt); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	over := *opt
	over.Reductions = append([]float64(nil), opt.Reductions...)
	over.Reductions[0] = ps[0].MaxReduction() * 2
	if err := CheckAllocation(ps, target, &over); err == nil {
		t.Fatal("reduction above MaxReduction accepted")
	}
	costly := *opt
	costly.TotalCost += 100
	if err := CheckAllocation(ps, target, &costly); err == nil {
		t.Fatal("cost bookkeeping mismatch accepted")
	}
}

func TestCheckCostOrdering(t *testing.T) {
	if err := CheckCostOrdering(10, 12, 15); err != nil {
		t.Errorf("valid ordering rejected: %v", err)
	}
	if err := CheckCostOrdering(10, 12, 11); err != nil {
		t.Errorf("STAT > EQL is allowed per instance, got: %v", err)
	}
	if err := CheckCostOrdering(13, 12, 15); err == nil {
		t.Error("OPT above STAT accepted")
	}
	if err := CheckCostOrdering(16, 17, 15); err == nil {
		t.Error("OPT above EQL accepted")
	}
}

// Generator self-checks: determinism (a reported seed must reproduce the
// instance exactly) and adversarial-shape coverage (the shapes the
// drivers claim to exercise must actually appear).
func TestGenDeterminism(t *testing.T) {
	a := NewGen(77)
	b := NewGen(77)
	pa := a.Pool(a.PoolSize(64))
	pb := b.Pool(b.PoolSize(64))
	if len(pa) != len(pb) {
		t.Fatalf("pool sizes differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		x, y := pa[i], pb[i]
		if x.JobID != y.JobID || x.Cores != y.Cores || x.Bid != y.Bid ||
			x.WattsPerCore != y.WattsPerCore || x.MaxFrac != y.MaxFrac {
			t.Fatalf("participant %d differs across identically seeded generators", i)
		}
	}
	if ta, tb := a.Target(1000), b.Target(1000); math.Float64bits(ta) != math.Float64bits(tb) {
		t.Fatalf("targets differ: %v vs %v", ta, tb)
	}
}

func TestGenShapeCoverage(t *testing.T) {
	var zeroDelta, zeroB, dupAct, singleton, atCap, aboveCap int
	for i := 0; i < 400; i++ {
		g := NewGen(instanceSeed(0xc0ffee, i))
		ps := g.Pool(g.PoolSize(64))
		if len(ps) == 1 {
			singleton++
		}
		seen := make(map[float64]bool)
		for _, p := range ps {
			switch {
			case p.Bid.Delta == 0:
				zeroDelta++
			case p.Bid.B == 0:
				zeroB++
			default:
				a := p.Bid.ActivationPrice()
				if seen[a] {
					dupAct++
				}
				seen[a] = true
			}
		}
		maxW := MaxSupplyW(ps)
		target := g.Target(maxW)
		if target == maxW && maxW > 0 {
			atCap++
		}
		if target > maxW {
			aboveCap++
		}
	}
	for name, n := range map[string]int{
		"zero-delta bids": zeroDelta, "zero-b bids": zeroB,
		"duplicate activation prices": dupAct, "singleton pools": singleton,
		"targets at capacity": atCap, "targets above capacity": aboveCap,
	} {
		if n == 0 {
			t.Errorf("generator never produced %s in 400 pools", name)
		}
	}
}

// The quadratic cost family's closed forms, cross-checked numerically:
// Respond must maximize q·δ − C(δ) over a grid, and the cooperative bid
// must never supply above the no-loss curve.
func TestQuadCostAnalyticForms(t *testing.T) {
	g := NewGen(0x9a0d)
	_, _, costs := g.CostPool(8)
	for ci, qc := range costs {
		for _, q := range []float64{0, qc.A / 2, qc.A, qc.A + 0.5, qc.A + 2*qc.C2*qc.Max, 50} {
			best := qc.Respond(q)
			gainAt := func(d float64) float64 { return q*d - qc.Cost(d) }
			for f := 0.0; f <= 1.0; f += 0.01 {
				if d := f * qc.Max; gainAt(d) > gainAt(best)+1e-9 {
					t.Fatalf("cost %d: Respond(%v)=%v beaten by δ=%v", ci, q, best, d)
				}
			}
		}
		bid := qc.CooperativeBid()
		for _, q := range []float64{0.01, 0.1, 0.5, 1, 2, 10, 100} {
			supply := bid.Supply(q)
			noLoss := (q - qc.A) / qc.C2 // C(δ) ≤ q·δ boundary
			if noLoss < 0 {
				noLoss = 0
			}
			if noLoss > qc.Max {
				noLoss = qc.Max
			}
			if supply > noLoss+1e-9 {
				t.Fatalf("cost %d: cooperative bid supplies %v at q=%v, beyond no-loss %v", ci, supply, q, noLoss)
			}
		}
	}
}
