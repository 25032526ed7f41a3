package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// linkedStream is NewStreamMarket as it was before the O(n) construction:
// one link — a treap insert — per participant, in index order.
func linkedStream(ps []*Participant, targetW float64) *StreamMarket {
	n := len(ps)
	sm := &StreamMarket{
		target: targetW,
		watts:  make([]float64, n),
		bids:   make([]Bid, n),
		active: make([]bool, n),
		nodes:  make([]streamNode, n),
		root:   streamNil,
	}
	for i, p := range ps {
		sm.watts[i] = p.WattsPerCore
		sm.bids[i] = p.Bid
		sm.active[i] = true
		sm.link(int32(i))
	}
	sm.recompute()
	return sm
}

// sameStream compares two markets bit for bit — floats by their bits, so
// a −0 key is not a +0 key — and names the first difference.
func sameStream(got, want *StreamMarket) error {
	bits := math.Float64bits
	if got.root != want.root {
		return fmt.Errorf("root %d, want %d", got.root, want.root)
	}
	if bits(got.price) != bits(want.price) || got.feasible != want.feasible {
		return fmt.Errorf("cached clear (%v, %v), want (%v, %v)", got.price, got.feasible, want.price, want.feasible)
	}
	if bits(got.target) != bits(want.target) || len(got.nodes) != len(want.nodes) ||
		len(got.watts) != len(want.watts) || len(got.bids) != len(want.bids) || len(got.active) != len(want.active) {
		return fmt.Errorf("target/lengths %v %d/%d/%d/%d, want %v %d/%d/%d/%d",
			got.target, len(got.nodes), len(got.watts), len(got.bids), len(got.active),
			want.target, len(want.nodes), len(want.watts), len(want.bids), len(want.active))
	}
	for i := range want.nodes {
		g, w := got.nodes[i], want.nodes[i]
		if g.left != w.left || g.right != w.right || got.linked(int32(i)) != want.linked(int32(i)) ||
			bits(g.key) != bits(w.key) || bits(g.wd) != bits(w.wd) || bits(g.wb) != bits(w.wb) ||
			bits(g.swd) != bits(w.swd) || bits(g.swb) != bits(w.swb) {
			return fmt.Errorf("node %d = %+v (linked %v), want %+v (linked %v)", i, g, got.linked(int32(i)), w, want.linked(int32(i)))
		}
		if bits(got.watts[i]) != bits(want.watts[i]) || got.bids[i] != want.bids[i] || got.active[i] != want.active[i] {
			return fmt.Errorf("slot %d = (%v, %+v, %v), want (%v, %+v, %v)", i,
				got.watts[i], got.bids[i], got.active[i], want.watts[i], want.bids[i], want.active[i])
		}
	}
	return nil
}

// TestStreamBuildMatchesSequentialLinks: the constructed treap is the
// grown one — arena, root and cached clear, bit for bit — at sizes on
// both sides of the kernel's small-pool cutoff and on every edge class of
// bid: ties, b = 0, ±0 keys, Δ = 0 slots among them, keys that overflow
// to +Inf beside Δ = 0 slots (which sort at +Inf but are never linked),
// keys that crowd the kernel's buckets, and key orders that follow the
// priorities up and down (one long spine).
func TestStreamBuildMatchesSequentialLinks(t *testing.T) {
	negZero := math.Copysign(0, -1)
	classes := []struct {
		name string
		bid  func(rng *rand.Rand, i, n int) Bid
	}{
		{"random", func(rng *rand.Rand, i, n int) Bid { return Bid{Delta: 0.1 + 8*rng.Float64(), B: 5 * rng.Float64()} }},
		{"ties", func(rng *rand.Rand, i, n int) Bid {
			d := float64(1 + rng.Intn(4))
			return Bid{Delta: d, B: d * []float64{0.5, 1.25, 2}[rng.Intn(3)]}
		}},
		{"all ties", func(rng *rand.Rand, i, n int) Bid { return Bid{Delta: 2, B: 3} }},
		{"delta 0", func(rng *rand.Rand, i, n int) Bid {
			return Bid{Delta: float64(rng.Intn(2)) * rng.Float64(), B: rng.Float64()}
		}},
		{"all delta 0", func(rng *rand.Rand, i, n int) Bid { return Bid{B: float64(i % 3)} }},
		{"b 0", func(rng *rand.Rand, i, n int) Bid {
			return Bid{Delta: 1 + rng.Float64(), B: float64(rng.Intn(2)) * rng.Float64()}
		}},
		{"zeros", func(rng *rand.Rand, i, n int) Bid {
			return Bid{Delta: 1 + rng.Float64(), B: []float64{0, negZero, 1}[rng.Intn(3)]}
		}},
		{"all -0", func(rng *rand.Rand, i, n int) Bid { return Bid{Delta: 1 + rng.Float64(), B: negZero} }},
		{"overflow", func(rng *rand.Rand, i, n int) Bid {
			return []Bid{{Delta: 1e-10, B: 1e308}, {B: 1}, {Delta: 1, B: rng.Float64()}, {Delta: 5e-324, B: 1}}[rng.Intn(4)]
		}},
		{"sorted", func(rng *rand.Rand, i, n int) Bid { return Bid{Delta: 1, B: float64(i) / 7} }},
		{"reversed", func(rng *rand.Rand, i, n int) Bid { return Bid{Delta: 1, B: float64(n-i) / 7} }},
		{"lone outlier", func(rng *rand.Rand, i, n int) Bid { return keyBid(loneOutlierKey(rng, i, n)) }},
		{"two far clusters", func(rng *rand.Rand, i, n int) Bid { return keyBid(farClustersKey(rng, i, n)) }},
	}
	sizes := []int{0, 1, 2, 3, 17, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 400, 5000, 100000}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	check := func(what string, ps []*Participant, share float64) {
		t.Helper()
		target := share * poolMaxW(ps)
		got, err := NewStreamMarket(ps, target)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := got.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := sameStream(got, linkedStream(ps, target)); err != nil {
			t.Fatalf("%s: constructed ≠ linked: %v", what, err)
		}
	}
	for _, c := range classes {
		for _, n := range sizes {
			if n > 5000 && c.name != "random" && c.name != "ties" && c.name != "overflow" {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n) + 1))
			ps := make([]*Participant, n)
			for i := range ps {
				ps[i] = &Participant{JobID: "b", Cores: 1, Bid: c.bid(rng, i, n), WattsPerCore: 50 + 1.37*float64(i%97)}
			}
			check(fmt.Sprintf("%s n=%d", c.name, n), ps, 0.4)
		}
	}

	// Keys that rise (fall) with the priority hash: every node hangs off
	// the one before it, the deepest stack the construction can meet.
	for _, n := range []int{insertionCutoff, 3000} {
		byPrio := make([]int32, n)
		for i := range byPrio {
			byPrio[i] = int32(i)
		}
		sort.Slice(byPrio, func(a, b int) bool { return streamPrio(byPrio[a]) < streamPrio(byPrio[b]) })
		up, down := make([]*Participant, n), make([]*Participant, n)
		for rank, i := range byPrio {
			up[i] = &Participant{JobID: "u", Cores: 1, Bid: Bid{Delta: 1, B: float64(rank)}, WattsPerCore: 100}
			down[i] = &Participant{JobID: "d", Cores: 1, Bid: Bid{Delta: 1, B: float64(n - rank)}, WattsPerCore: 100}
		}
		check(fmt.Sprintf("keys rising with priority n=%d", n), up, 0.7)
		check(fmt.Sprintf("keys falling with priority n=%d", n), down, 0.7)
		sm, err := NewStreamMarket(up, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := sm.depth(); got != n {
			t.Errorf("keys rising with priority n=%d: depth %d, want a single spine", n, got)
		}
	}

	// Every target regime over one pool: trivial, interior, exact ceiling,
	// infeasible, +Inf.
	ps := randomPool(rand.New(rand.NewSource(21)), 700)
	for _, share := range []float64{-1, 0, 1e-9, 0.5, 1, 1.5, math.Inf(1)} {
		check(fmt.Sprintf("share %v", share), ps, share)
	}
}

// TestStreamBuildAllocs pins the construction's memory: the market and
// its four arrays (73 bytes a participant: watts 8, bid 16, active 1 and
// node 48), plus the sort's transient scratch — two keys and two int32
// indices, 24 bytes a participant in four objects — of which nothing is
// live once NewStreamMarket has returned.
func TestStreamBuildAllocs(t *testing.T) {
	const n, runs = 30000, 8
	ps := randomPool(rand.New(rand.NewSource(3)), n)
	var sm *StreamMarket
	var err error
	build := func() {
		if sm, err = NewStreamMarket(ps, 1e5); err != nil {
			t.Fatal(err)
		}
	}
	// Averaged over enough runs that the runtime's own few objects (the
	// collector's workers start during the first builds) round away.
	if got := testing.AllocsPerRun(8*runs, build); got > 9 {
		t.Errorf("NewStreamMarket(%d) made %v allocations, want ≤ 9 (the market, its four arrays, four of scratch)", n, got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		build()
	}
	runtime.ReadMemStats(&after)
	// Each array is rounded up to whole 8 KiB pages.
	const page = 8192
	if got, max := (after.TotalAlloc-before.TotalAlloc)/runs, uint64((73+24)*n+8*page+256); got > max {
		t.Errorf("NewStreamMarket(%d) allocated %d bytes, want ≤ %d (73·n kept, 24·n scratch, plus rounding)", n, got, max)
	}
	sm = nil
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got, max := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(73*n+4*page+4096); got > max {
		t.Errorf("a built market of %d keeps %d bytes live, want ≤ %d (73·n plus rounding): scratch retained?", n, got, max)
	}
	if err := sameStream(sm, linkedStream(ps, 1e5)); err != nil {
		t.Errorf("constructed ≠ linked: %v", err)
	}
}
