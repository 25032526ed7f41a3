package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// orderOracle is the comparison-sort form of the activation order:
// sort.Sort over (key, index), ties broken on the participant index.
type orderOracle struct {
	key   []float64
	order []int
}

func (o orderOracle) Len() int { return len(o.order) }
func (o orderOracle) Less(a, b int) bool {
	ka, kb := o.key[o.order[a]], o.key[o.order[b]]
	if ka != kb {
		return ka < kb
	}
	return o.order[a] < o.order[b]
}
func (o orderOracle) Swap(a, b int) { o.order[a], o.order[b] = o.order[b], o.order[a] }

// checkAgainstOracle compares the index's permutation with the oracle's
// and its prefix sums, bit for bit, with sums taken in the oracle's order.
func checkAgainstOracle(t testing.TB, what string, ix *MarketIndex) {
	t.Helper()
	n := len(ix.bids)
	o := orderOracle{key: make([]float64, n), order: make([]int, n)}
	for i, b := range ix.bids {
		o.key[i], o.order[i] = activationKey(b), i
	}
	sort.Sort(o)
	if len(ix.order) != n || len(ix.act) != n || len(ix.prefWD) != n+1 || len(ix.prefWB) != n+1 {
		t.Fatalf("%s: derived array lengths %d/%d/%d/%d for n=%d", what, len(ix.order), len(ix.act), len(ix.prefWD), len(ix.prefWB), n)
	}
	if ix.prefWD[0] != 0 || ix.prefWB[0] != 0 {
		t.Fatalf("%s: prefix sums start at (%v, %v), want 0 — sort scratch leaked into slot 0", what, ix.prefWD[0], ix.prefWB[0])
	}
	var wd, wb float64
	for k, i := range o.order {
		if ix.order[k] != i {
			t.Fatalf("%s: order[%d] = %d (key %v), oracle %d (key %v)", what, k, ix.order[k], ix.key[ix.order[k]], i, o.key[i])
		}
		if math.Float64bits(ix.act[k]) != math.Float64bits(o.key[i]) {
			t.Fatalf("%s: act[%d] = %v, want %v", what, k, ix.act[k], o.key[i])
		}
		if d := ix.bids[i].Delta; d > 0 {
			wd += ix.watts[i] * d
			wb += ix.watts[i] * ix.bids[i].B
		}
		if ix.prefWD[k+1] != wd || ix.prefWB[k+1] != wb {
			t.Fatalf("%s: prefix[%d] = (%v, %v), want (%v, %v)", what, k+1, ix.prefWD[k+1], ix.prefWB[k+1], wd, wb)
		}
	}
}

// keyBid is a bid whose activation key is exactly k (Δ = 1, so b/Δ = b);
// a +Inf key is a Δ = 0 bid.
func keyBid(k float64) Bid {
	if math.IsInf(k, 1) {
		return Bid{}
	}
	return Bid{Delta: 1, B: k}
}

// loneOutlierKey draws uniform keys in [0.05, 0.55] with two far above
// them, 1e300 and MaxFloat64: spread by bits over the whole range, the
// cluster crowds into about a three-hundredth of the buckets.
func loneOutlierKey(rng *rand.Rand, i, n int) float64 {
	switch i {
	case n / 3:
		return 1e300
	case 2 * n / 3:
		return math.MaxFloat64
	}
	return 0.05 + 0.5*rng.Float64()
}

// farClustersKey draws half its keys like loneOutlierKey's cluster and half
// 1e200 times higher: each cluster crowds its own few buckets.
func farClustersKey(rng *rand.Rand, i, n int) float64 {
	return (0.05 + 0.5*rng.Float64()) * []float64{1, 1e200}[rng.Intn(2)]
}

// keyPool builds participants whose activation keys are exactly keys.
func keyPool(keys []float64) []*Participant {
	ps := make([]*Participant, len(keys))
	for i, k := range keys {
		bid := keyBid(k)
		if bid.Delta == 0 {
			bid.B = float64(i % 3) // reluctance that must never be summed
		}
		ps[i] = &Participant{JobID: "k", Cores: 1, Bid: bid, WattsPerCore: 50 + 1.37*float64(i%97)}
	}
	return ps
}

// TestIndexOrderMatchesOracle: the bucket-sort (and, under the cutoff,
// the insertion) permutation is the sort.Sort oracle's on every edge class
// of key — among them the ones that crowd the buckets and make the kernel
// re-bucket — at sizes on both sides of the small-pool cutoff, through
// Reset to a smaller and then a larger pool, and through re-sorting
// Refreshes that leave the old order shuffled, nearly sorted, and half
// sorted.
func TestIndexOrderMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	classes := []struct {
		name string
		key  func(rng *rand.Rand, i, n int) float64
	}{
		{"random", func(rng *rand.Rand, i, n int) float64 { return 5 * rng.Float64() }},
		{"ties", func(rng *rand.Rand, i, n int) float64 { return []float64{0.5, 1.25, 2}[rng.Intn(3)] }},
		{"zeros", func(rng *rand.Rand, i, n int) float64 { return []float64{0, negZero, 1}[rng.Intn(3)] }},
		{"all -0", func(rng *rand.Rand, i, n int) float64 { return negZero }},
		{"delta 0", func(rng *rand.Rand, i, n int) float64 { return []float64{math.Inf(1), rng.Float64()}[rng.Intn(2)] }},
		{"denormal", func(rng *rand.Rand, i, n int) float64 { return math.Float64frombits(uint64(rng.Intn(1 << 20))) }},
		{"wide", func(rng *rand.Rand, i, n int) float64 {
			return []float64{5e-324, 1e-300, 1, 1e300, math.MaxFloat64}[rng.Intn(5)] * (1 + rng.Float64()/2)
		}},
		{"all equal", func(rng *rand.Rand, i, n int) float64 { return 1.5 }},
		{"sorted", func(rng *rand.Rand, i, n int) float64 { return float64(i) / 7 }},
		{"reversed", func(rng *rand.Rand, i, n int) float64 { return float64(n-i) / 7 }},
		{"low byte", func(rng *rand.Rand, i, n int) float64 {
			return math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(200)))
		}},
		{"lone outlier", loneOutlierKey},
		{"two far clusters", farClustersKey},
	}
	sizes := []int{0, 1, 2, 17, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 257, 4099, 30000}
	for _, c := range classes {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = c.key(rng, i, n)
			}
			what := fmt.Sprintf("%s n=%d", c.name, n)
			ix, err := NewMarketIndex(keyPool(keys))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkAgainstOracle(t, what, ix)

			// A Refresh that has to re-sort: rotate every bid one
			// participant along.
			setKey := func(i int, k float64) {
				if err := ix.SetBid(i, keyBid(k)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			for i := range keys {
				setKey(i, keys[(i+1)%n])
			}
			ix.Refresh()
			checkAgainstOracle(t, what+" rotated", ix)

			// Refreshes that start re-sorting by insertion from the old
			// order: three bids moved (to the front, to the back, onto a
			// tie), which insertion finishes at any size; then the back
			// half reversed, which a large pool hands to the bucket sort
			// midway.
			if n < 4 {
				continue
			}
			setKey(ix.order[n/2], 0)
			setKey(ix.order[1], math.MaxFloat64)
			setKey(ix.order[n/3], ix.key[ix.order[n-2]])
			ix.Refresh()
			checkAgainstOracle(t, what+" three moved", ix)
			back := append([]int(nil), ix.order[n/2:]...)
			was := append([]float64(nil), ix.act[n/2:]...)
			for r, i := range back {
				setKey(i, was[len(was)-1-r])
			}
			ix.Refresh()
			checkAgainstOracle(t, what+" back half reversed", ix)
		}
	}

	// One index reused across pools: down across the cutoff, then up past
	// the first capacity (reallocation), then down again (stale tails).
	ix := &MarketIndex{}
	for _, n := range []int{300, insertionCutoff / 2, 5000, insertionCutoff + 5, 299} {
		rng := rand.New(rand.NewSource(int64(n)))
		if err := ix.Reset(randomPool(rng, n)); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, fmt.Sprintf("reset to %d", n), ix)
	}
}

// FuzzIndexOrder drives the activation sort with raw key bits: two
// header bytes (tiles, step) and then eight bytes per key. Every key is
// repeated tiles times, step apart in its last place — exact ties at
// step 0 — so short inputs still reach the bucket-sort side of the cutoff.
// Bit patterns that are not a valid b (negative, NaN, +Inf) become −0,
// or a Δ = 0 bid.
func FuzzIndexOrder(f *testing.F) {
	seed := func(tiles, step byte, bits ...uint64) {
		data := []byte{tiles, step}
		for _, b := range bits {
			data = binary.LittleEndian.AppendUint64(data, b)
		}
		f.Add(data)
	}
	one := math.Float64bits(1)
	seed(0, 0, one, 0, 1<<63, math.Float64bits(math.Inf(1)), 1, math.Float64bits(1e300))
	seed(15, 0, one, one+1, 0, 1<<63)
	seed(15, 3, one, math.Float64bits(2), 7, 7<<40)
	seed(15, 255, math.Float64bits(math.MaxFloat64), math.Float64bits(math.NaN()), one<<1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tiles, step := 1+int(data[0]%16), uint64(data[1])
		data = data[2:]
		if len(data) > 8*1024 {
			data = data[:8*1024]
		}
		var keys []float64
		for tile := 0; tile < tiles; tile++ {
			for d := data; len(d) >= 8; d = d[8:] {
				k := math.Float64frombits(binary.LittleEndian.Uint64(d) + uint64(tile)*step)
				switch {
				case k != k || k > math.MaxFloat64:
					k = math.Inf(1)
				case k < 0:
					k = math.Copysign(0, -1)
				}
				keys = append(keys, k)
			}
		}
		ix, err := NewMarketIndex(keyPool(keys))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "build", ix)
		for i := range keys {
			if err := ix.SetBid(i, keyBid(keys[len(keys)-1-i])); err != nil {
				t.Fatal(err)
			}
		}
		ix.Refresh()
		checkAgainstOracle(t, "mirrored", ix)
	})
}

// TestIndexBuildAllocs pins the index's memory: the struct and seven
// arrays, 64 bytes per participant, and nothing at all for a Reset onto a
// pool that fits. The sort's scratch, its bucket counts included, is the
// derived arrays themselves.
func TestIndexBuildAllocs(t *testing.T) {
	const n, runs = 30000, 8
	ps := randomPool(rand.New(rand.NewSource(3)), n)
	var ix *MarketIndex
	var err error
	build := func() {
		if ix, err = NewMarketIndex(ps); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(runs, build); got > 8 {
		t.Errorf("NewMarketIndex(%d) made %v allocations, want ≤ 8 (the index and its seven arrays)", n, got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		build()
	}
	runtime.ReadMemStats(&after)
	// Each array is rounded up to whole 8 KiB pages.
	const page = 8192
	if got, max := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(64*n+16+7*page+256); got > max {
		t.Errorf("NewMarketIndex(%d) allocated %d bytes, want ≤ %d (64·n plus rounding)", n, got, max)
	}
	if a := testing.AllocsPerRun(5, func() {
		if err := ix.Reset(ps); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Reset on a same-size pool allocates %v times, want 0", a)
	}
	checkAgainstOracle(t, "after resets", ix)
}
