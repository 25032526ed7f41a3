// Package hdr is a lock-striped, log-bucketed high-dynamic-range
// histogram, the repo's one histogram type. No bounds are guessed up
// front: an hdr.Histogram covers roughly 1 ns – 100 s (or, for the
// count-valued instruments, 1 to 127 rounds or slots) with bounded
// *relative* error: every power of two in the trackable range is
// subdivided into 2^subBits linear sub-buckets, so a bucket's width is at
// most 1/2^subBits (≈3.1%) of the values it holds, at every magnitude.
//
// The layout is fixed: every histogram shares the same bucket boundaries.
// Record is wait-free (a few atomic adds on a round-robin-selected
// stripe) and allocates nothing in steady state, which
// TestHDRRecordZeroAlloc enforces.
//
// Values are plain float64s; the natural unit for RTT paths is seconds,
// putting the trackable range [2^-30 s ≈ 0.93 ns, 2^7 s = 128 s].
// Out-of-range values clamp into dedicated underflow/overflow buckets and
// are still counted (and still tracked by Min/Max), so a pathological
// tail can never silently vanish; Count, Sum and Mean are exact either
// way. For a count-valued instrument that means a 0 (a reduction applied
// in its own slot) sits in the underflow bucket and reads back as Min,
// and an emergency of 128 slots or more sits in overflow and reads back
// as Max. A negative, NaN or infinite value is not a sample: it is
// counted as invalid and kept out of the buckets and of Count/Sum/Min/Max,
// so one bad sample cannot poison the sum.
package hdr

import (
	"math"
	"sync/atomic"
)

const (
	// subBits is the number of mantissa bits used to subdivide each
	// power of two: 2^subBits linear sub-buckets per octave, bounding
	// relative bucket width by 1/2^subBits ≈ 3.1%.
	subBits  = 5
	subCount = 1 << subBits

	// minExp and maxExp bound the trackable exponent range: values in
	// [2^minExp, 2^maxExp) land in log buckets; outside they clamp to
	// the underflow/overflow buckets.
	minExp = -30 // 2^-30 s ≈ 0.93 ns
	maxExp = 7   // 2^7 s = 128 s

	octaves = maxExp - minExp // exponents minExp..maxExp-1

	// NumBuckets is the total bucket count: underflow + log-linear
	// grid + overflow.
	NumBuckets = 2 + octaves*subCount

	underflowBucket = 0
	overflowBucket  = NumBuckets - 1
)

// MinTrackable and MaxTrackable bound the log-bucketed range; values
// outside clamp to the underflow/overflow buckets.
var (
	MinTrackable = math.Ldexp(1, minExp)
	MaxTrackable = math.Ldexp(1, maxExp)
)

// bucketOf maps a value onto its bucket index. Non-positive and
// sub-range values underflow; values at or above MaxTrackable overflow.
// NaN is pinned to underflow explicitly (it compares false everywhere),
// so a corrupted measurement can never fabricate a 128 s tail.
func bucketOf(v float64) int {
	if math.IsNaN(v) || v < MinTrackable {
		return underflowBucket
	}
	if v >= MaxTrackable {
		return overflowBucket
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	sub := int(bits >> (52 - subBits) & (subCount - 1))
	return 1 + (exp-minExp)*subCount + sub
}

// BucketBounds returns the [lo, hi) value range of bucket i. The
// underflow bucket spans [0, MinTrackable); the overflow bucket
// [MaxTrackable, +Inf).
func BucketBounds(i int) (lo, hi float64) {
	switch {
	case i <= underflowBucket:
		return 0, MinTrackable
	case i >= overflowBucket:
		return MaxTrackable, math.Inf(1)
	}
	i--
	exp := minExp + i/subCount
	sub := i % subCount
	scale := math.Ldexp(1, exp)
	return scale * (1 + float64(sub)/subCount), scale * (1 + float64(sub+1)/subCount)
}

// stripes is the number of independent shards an observation can land
// on; concurrent recorders contend 1/stripes as often on any one cache
// line. Snapshots fold the stripes back together.
const stripes = 8

// stripe is one shard. minBits/maxBits hold float64 bit patterns
// (math.Float64bits) updated by CAS; the trailing pad keeps the hot
// count/sum words of adjacent stripes on separate cache lines.
type stripe struct {
	counts  [NumBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	invalid atomic.Int64
	_       [16]byte
}

func (s *stripe) addSum(v float64) {
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (s *stripe) updateMin(v float64) {
	for {
		old := s.minBits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if s.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (s *stripe) updateMax(v float64) {
	for {
		old := s.maxBits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if s.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a concurrent HDR histogram. The zero value is NOT ready;
// construct with New. A nil *Histogram is the no-op histogram: Record
// does nothing and Snapshot returns the empty snapshot, mirroring the
// telemetry package's nil-safety contract.
type Histogram struct {
	stripes [stripes]stripe
	rr      atomic.Uint64
}

// New builds an empty histogram (~80 KiB: 8 stripes × NumBuckets
// counters).
func New() *Histogram {
	h := &Histogram{}
	for i := range h.stripes {
		h.stripes[i].minBits.Store(math.Float64bits(math.Inf(1)))
		h.stripes[i].maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
	return h
}

// Record adds one observation. Wait-free, zero-alloc, nil-safe: a few
// atomic updates on a round-robin-selected stripe. A negative, NaN or +Inf v
// only bumps the invalid count.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	s := &h.stripes[h.rr.Add(1)&(stripes-1)]
	if !(v >= 0 && v <= math.MaxFloat64) { // negative, NaN or +Inf
		s.invalid.Add(1)
		return
	}
	s.counts[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.addSum(v)
	s.updateMin(v)
	s.updateMax(v)
}

// Snapshot folds the stripes into a point-in-time copy.
// Returns the empty snapshot on a nil histogram. Concurrent Records may
// land between stripe reads, so a snapshot taken under write load is a
// consistent-enough view, not a linearizable cut.
func (h *Histogram) Snapshot() Snapshot {
	snap := Snapshot{Min: math.Inf(1), Max: math.Inf(-1)}
	if h == nil {
		snap.Min, snap.Max = 0, 0
		return snap
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := range s.counts {
			snap.Counts[b] += s.counts[b].Load()
		}
		snap.Count += s.count.Load()
		snap.Invalid += s.invalid.Load()
		snap.Sum += math.Float64frombits(s.sumBits.Load())
		if min := math.Float64frombits(s.minBits.Load()); min < snap.Min {
			snap.Min = min
		}
		if max := math.Float64frombits(s.maxBits.Load()); max > snap.Max {
			snap.Max = max
		}
	}
	if snap.Count == 0 {
		snap.Min, snap.Max = 0, 0
	}
	return snap
}

// Snapshot is a point-in-time copy of a histogram. Invalid counts the
// negative, NaN and +Inf samples Record refused; they are in none of the
// other fields.
type Snapshot struct {
	Counts  [NumBuckets]int64
	Count   int64
	Invalid int64
	Sum     float64
	Min     float64
	Max     float64
}

// Mean returns the average observation (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the p-quantile (p in [0,1]) as the midpoint of the
// bucket holding the rank-⌈p·n⌉ observation, clamped to the observed
// [Min, Max]. The exact sorted-sample quantile under the same rank
// convention lands in that same bucket, so the absolute error is bounded
// by one bucket width — i.e. relative error ≤ 1/2^subBits within the
// trackable range. Returns 0 when empty; p ≤ 0 returns Min, p ≥ 1 Max.
func (s Snapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			lo, hi := BucketBounds(i)
			est := (lo + hi) / 2
			if i == underflowBucket || i == overflowBucket {
				// Clamp the open-ended buckets to what was seen.
				if i == underflowBucket {
					est = s.Min
				} else {
					est = s.Max
				}
			}
			if est < s.Min {
				est = s.Min
			}
			if est > s.Max {
				est = s.Max
			}
			return est
		}
	}
	return s.Max
}
