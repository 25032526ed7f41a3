package telemetry

import (
	"fmt"
	"slices"
	"testing"
)

// TestRingMatchesSliceModel checks Ring against the obvious model — an
// append-only slice whose last cap values are the window — at every
// interesting fill level: empty, one short of full, full, one past, and
// wrapped several times over.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, size := range []int{1, 16} {
		for _, pushes := range []int{0, size - 1, size, size + 1, 3*size + 5} {
			t.Run(fmt.Sprintf("cap%d_push%d", size, pushes), func(t *testing.T) {
				r := NewRing[int](size)
				var model []int
				for i := 0; i < pushes; i++ {
					r.Push(i * 7)
					model = append(model, i*7)
				}
				window := model
				if len(window) > size {
					window = window[len(window)-size:]
				}
				if r.Len() != len(window) || r.Total() != uint64(pushes) {
					t.Fatalf("Len/Total = %d/%d, want %d/%d", r.Len(), r.Total(), len(window), pushes)
				}
				for i, want := range window {
					if got := r.At(i); got != want {
						t.Fatalf("At(%d) = %d, want %d", i, got, want)
					}
				}
				for _, k := range []int{-1, 0, 1, len(window), len(window) + 3} {
					want := window
					if k >= 0 && k < len(window) {
						want = window[len(window)-k:]
					}
					if got := r.Last(nil, k); !slices.Equal(got, want) {
						t.Fatalf("Last(%d) = %v, want %v", k, got, want)
					}
				}
				// Last appends to dst rather than replacing it.
				if got := r.Last([]int{-1}, 1); got[0] != -1 || len(got) != 1+min(1, len(window)) {
					t.Fatalf("Last(dst, 1) = %v", got)
				}
			})
		}
	}
}

// TestRingMinimumSize: a non-positive size still retains one value.
func TestRingMinimumSize(t *testing.T) {
	r := NewRing[string](0)
	r.Push("a")
	r.Push("b")
	if r.Len() != 1 || r.At(0) != "b" || r.Total() != 2 {
		t.Fatalf("Len/At(0)/Total = %d/%q/%d, want 1/\"b\"/2", r.Len(), r.At(0), r.Total())
	}
}

// TestRingPushZeroAlloc: the backing array is sized once, so Push never
// allocates — neither while filling nor once it overwrites.
func TestRingPushZeroAlloc(t *testing.T) {
	r := NewRing[Event](64)
	e := Event{Name: "market_round"}
	if avg := testing.AllocsPerRun(1000, func() { r.Push(e) }); avg != 0 {
		t.Fatalf("Push allocates %.1f per call, want 0", avg)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}
