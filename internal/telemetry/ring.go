package telemetry

// Ring is the fixed-capacity retention buffer every telemetry window is
// built on: the tracer's event and span rings, the flight recorder's
// firing history and each tsdb series' ring of samples. When full,
// Push overwrites the oldest value. A Ring is not synchronized — each
// owner guards it with its own lock — and Push never allocates, since the
// backing array is sized once by NewRing. The zero value is not usable.
type Ring[T any] struct {
	buf   []T
	old   int // slot of the oldest value once full (0 while filling)
	total uint64
}

// NewRing builds an empty ring retaining the last size values (minimum 1).
func NewRing[T any](size int) Ring[T] {
	if size < 1 {
		size = 1
	}
	return Ring[T]{buf: make([]T, 0, size)}
}

// Push appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.old] = v
		if r.old++; r.old == len(r.buf) {
			r.old = 0
		}
	}
	r.total++
}

// Len returns the number of values retained.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the number of values ever pushed; Total−Len were
// overwritten.
func (r *Ring[T]) Total() uint64 { return r.total }

// At returns the i-th oldest retained value, 0 ≤ i < Len.
func (r *Ring[T]) At(i int) T {
	if i += r.old; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Last appends the k newest retained values to dst, oldest first, and
// returns it. k < 0 or k > Len means every retained value.
func (r *Ring[T]) Last(dst []T, k int) []T {
	n := len(r.buf)
	if k < 0 || k > n {
		k = n
	}
	for i := n - k; i < n; i++ {
		dst = append(dst, r.At(i))
	}
	return dst
}
