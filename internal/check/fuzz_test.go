package check

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mpr/internal/core"
	"mpr/internal/trace"
)

// fold maps an arbitrary fuzzed float64 into [lo, hi]. Non-finite inputs
// are rejected; the bottom 2% of the band snaps to lo exactly so boundary
// shapes (Δ = 0, b = 0, zero targets) stay reachable from any corpus
// mutation, not only from inputs that hit lo to the last bit.
func fold(v, lo, hi float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	span := hi - lo
	v = lo + math.Mod(math.Abs(v), span)
	if v < lo+0.02*span {
		v = lo
	}
	return v, true
}

// fuzzPool builds a three-participant market from raw (Δ, b, W) triples,
// folded into the solvers' documented operating range. The bisection
// cross-check's price guarantee is bracket-relative, so unbounded
// magnitudes would fuzz float overflow, not market logic; range shaping
// keeps every discovered disagreement a genuine solver bug.
func fuzzPool(raw [9]float64) ([]*core.Participant, bool) {
	ps := make([]*core.Participant, 3)
	for i := range ps {
		delta, ok1 := fold(raw[3*i], 0, 16)
		b, ok2 := fold(raw[3*i+1], 0, 10)
		w, ok3 := fold(raw[3*i+2], 0.5, 400)
		if !ok1 || !ok2 || !ok3 {
			return nil, false
		}
		ps[i] = &core.Participant{
			JobID:        "f",
			Cores:        1,
			Bid:          core.Bid{Delta: delta, B: b},
			WattsPerCore: w,
			MaxFrac:      delta,
		}
	}
	return ps, true
}

// fuzzTarget folds tf into a reduction target for the pool: fractions of
// capacity up to 1.3× (covering infeasible markets), or an absolute
// target when the pool is dead (capacity zero).
func fuzzTarget(ps []*core.Participant, tf float64) (float64, bool) {
	maxW := MaxSupplyW(ps)
	if maxW <= 0 {
		return fold(tf, 0, 100)
	}
	frac, ok := fold(tf, 0, 1.3)
	return frac * maxW, ok
}

// FuzzClear cross-checks the closed-form and bisection MClr solvers on
// fuzzer-shaped three-participant markets and runs both results through
// the invariant oracle.
func FuzzClear(f *testing.F) {
	f.Add(2.0, 1.0, 100.0, 4.0, 0.5, 150.0, 1.0, 2.0, 80.0, 0.5)
	f.Add(0.0, 0.0, 100.0, 0.0, 0.0, 100.0, 0.0, 0.0, 100.0, 0.3)
	f.Add(3.0, 1.5, 120.0, 6.0, 3.0, 120.0, 3.0, 1.5, 120.0, 1.25)
	f.Fuzz(func(t *testing.T, d1, b1, w1, d2, b2, w2, d3, b3, w3, tf float64) {
		ps, ok := fuzzPool([9]float64{d1, b1, w1, d2, b2, w2, d3, b3, w3})
		if !ok {
			t.Skip()
		}
		target, ok := fuzzTarget(ps, tf)
		if !ok {
			t.Skip()
		}
		cf, err := core.Clear(ps, target)
		if err != nil {
			t.Fatalf("closed form: %v", err)
		}
		bi, err := core.ClearBisect(ps, target)
		if err != nil {
			t.Fatalf("bisection: %v", err)
		}
		if err := CheckClearing(ps, target, cf); err != nil {
			t.Fatalf("closed form violates invariants: %v", err)
		}
		if err := CheckClearing(ps, target, bi); err != nil {
			t.Fatalf("bisection violates invariants: %v", err)
		}
		if err := compareClears(ps, target, cf, bi); err != nil {
			t.Fatalf("solver disagreement: %v", err)
		}
	})
}

// FuzzMarketIndex checks the reusable market index against the naive
// O(M) aggregate supply: point agreement at a fuzzed price, monotonicity,
// capacity bookkeeping, ClearInto's reductions equal to a Supply loop bit
// for bit, and SetBid incremental updates matching a fresh index build.
func FuzzMarketIndex(f *testing.F) {
	f.Add(2.0, 1.0, 100.0, 4.0, 0.5, 150.0, 1.0, 2.0, 80.0, 0.7, 3.0, 0.2)
	f.Add(2.0, 1.0, 100.0, 2.0, 1.0, 100.0, 2.0, 1.0, 100.0, 0.5, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, d1, b1, w1, d2, b2, w2, d3, b3, w3, qr, nd, nb float64) {
		ps, ok := fuzzPool([9]float64{d1, b1, w1, d2, b2, w2, d3, b3, w3})
		if !ok {
			t.Skip()
		}
		q, ok := fold(qr, 0, 1e6)
		if !ok {
			t.Skip()
		}
		ix, err := core.NewMarketIndex(ps)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		maxW := MaxSupplyW(ps)
		tol := Tol * (1 + maxW)
		if d := math.Abs(ix.MaxSupplyW() - maxW); d > tol {
			t.Fatalf("MaxSupplyW %v, naive %v", ix.MaxSupplyW(), maxW)
		}
		if d := math.Abs(ix.SupplyW(q) - SupplyWAt(ps, q)); d > tol {
			t.Fatalf("SupplyW(%v) = %v, naive %v", q, ix.SupplyW(q), SupplyWAt(ps, q))
		}
		if ix.SupplyW(q) > ix.SupplyW(2*q+1)+tol {
			t.Fatalf("supply not monotone: S(%v)=%v > S(%v)=%v", q, ix.SupplyW(q), 2*q+1, ix.SupplyW(2*q+1))
		}
		// Materialization: ClearInto's reductions, supplied watts and
		// payout are a Supply loop in index order, bit for bit.
		var res core.ClearingResult
		for _, target := range []float64{ix.SupplyW(q), 0.5 * maxW, 2 * maxW} {
			if !(target > 0) {
				continue
			}
			if err := ix.ClearInto(&res, target); err != nil {
				t.Fatalf("ClearInto(%v): %v", target, err)
			}
			var supplied, total float64
			for i, p := range ps {
				d := p.Bid.Supply(res.Price)
				if math.Float64bits(res.Reductions[i]) != math.Float64bits(d) {
					t.Fatalf("target %v: reduction[%d] = %v, Supply(%v) = %v", target, i, res.Reductions[i], res.Price, d)
				}
				supplied += p.WattsPerCore * d
				total += d
			}
			if math.Float64bits(res.SuppliedW) != math.Float64bits(supplied) || math.Float64bits(res.PayoutRate) != math.Float64bits(res.Price*total) {
				t.Fatalf("target %v: SuppliedW %v payout %v, Supply loop %v and %v", target, res.SuppliedW, res.PayoutRate, supplied, res.Price*total)
			}
		}
		// Incremental rebid: updating one bid in place must match an
		// index built fresh over the updated pool.
		newDelta, ok1 := fold(nd, 0, 16)
		newB, ok2 := fold(nb, 0, 10)
		if !ok1 || !ok2 {
			t.Skip()
		}
		if err := ix.SetBid(1, core.Bid{Delta: newDelta, B: newB}); err != nil {
			t.Fatalf("SetBid: %v", err)
		}
		ix.Refresh() // SetBid takes effect at the next Refresh by contract
		ps[1].Bid = core.Bid{Delta: newDelta, B: newB}
		fresh, err := core.NewMarketIndex(ps)
		if err != nil {
			t.Fatalf("fresh index build: %v", err)
		}
		tol = Tol * (1 + math.Max(maxW, fresh.MaxSupplyW()))
		if d := math.Abs(ix.SupplyW(q) - fresh.SupplyW(q)); d > tol {
			t.Fatalf("after SetBid: incremental S(%v)=%v, fresh %v", q, ix.SupplyW(q), fresh.SupplyW(q))
		}
	})
}

// FuzzSWFParse feeds arbitrary bytes to the SWF trace parser: it must
// never panic, must account for every data line as a job, a skip, or a
// malformed count, and must produce a trace whose jobs survive a
// write/re-parse round trip.
func FuzzSWFParse(f *testing.F) {
	f.Add([]byte("; MaxProcs: 128\n1 0 10 3600 16 -1 -1 16 3600 -1 1 1 1 -1 -1 -1 -1 -1\n"))
	f.Add([]byte("1 2 3\nx 0 0 100 4\n1 0 0 -1 4\n"))
	f.Add([]byte("; Version: 2.2\n\n3 200 0 100 2\n1 0 0 100 2\n"))
	f.Add([]byte(";\n1 0 0 100 0\n1 0 -5 100 4 -1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ParseSWF(bytes.NewReader(data), "fuzz")
		if err != nil {
			// Only reader-level failures (e.g. a line beyond the scanner
			// buffer) are fatal by contract; they are not parse bugs.
			t.Skip()
		}
		dataLines := 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, ";") {
				continue
			}
			dataLines++
		}
		if got := len(tr.Jobs) + tr.Skipped + tr.Malformed; got != dataLines {
			t.Fatalf("accounted for %d data lines (%d jobs + %d skipped + %d malformed), input has %d",
				got, len(tr.Jobs), tr.Skipped, tr.Malformed, dataLines)
		}
		var prev int64
		for i, j := range tr.Jobs {
			if j.Runtime <= 0 || j.Cores <= 0 {
				t.Fatalf("job %d kept with runtime %d, cores %d", i, j.Runtime, j.Cores)
			}
			if j.Wait < 0 {
				t.Fatalf("job %d kept with negative wait %d", i, j.Wait)
			}
			if j.Submit < prev {
				t.Fatalf("job %d out of submit order", i)
			}
			prev = j.Submit
		}
		if len(tr.Jobs) == 0 {
			return
		}
		// A fuzzed MaxProcs header can undersize the cluster against the
		// jobs' allocations, so Validate is only asserted when the
		// cluster holds the peak.
		if tr.TotalCores >= tr.PeakAllocation() {
			if err := tr.Validate(); err != nil {
				t.Fatalf("parsed trace invalid: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteSWF(&buf, tr); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := trace.ParseSWF(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.Malformed != 0 || back.Skipped != 0 || len(back.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip: %d jobs, %d malformed, %d skipped (want %d/0/0)",
				len(back.Jobs), back.Malformed, back.Skipped, len(tr.Jobs))
		}
		for i := range tr.Jobs {
			if back.Jobs[i] != tr.Jobs[i] {
				t.Fatalf("round trip job %d: %+v != %+v", i, back.Jobs[i], tr.Jobs[i])
			}
		}
	})
}
