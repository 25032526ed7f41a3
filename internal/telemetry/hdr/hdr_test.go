package hdr

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBucketOfRoundTrip(t *testing.T) {
	// Every trackable value must land in a bucket whose bounds contain it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// Log-uniform over the trackable range.
		v := math.Exp(rng.Float64()*(math.Log(MaxTrackable)-math.Log(MinTrackable)) + math.Log(MinTrackable))
		b := bucketOf(v)
		lo, hi := BucketBounds(b)
		if v < lo || v >= hi {
			t.Fatalf("value %g in bucket %d with bounds [%g, %g)", v, b, lo, hi)
		}
	}
}

func TestBucketBoundsContiguous(t *testing.T) {
	prevHi := MinTrackable
	for i := 1; i < overflowBucket; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d lo = %g, want %g (gap or overlap)", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%g, %g)", i, lo, hi)
		}
		// Relative bucket width is the quantile error bound.
		if w := (hi - lo) / lo; w > 1.0/subCount+1e-12 {
			t.Fatalf("bucket %d relative width %g > %g", i, w, 1.0/subCount)
		}
		prevHi = hi
	}
}

func TestBucketOfClamps(t *testing.T) {
	for _, v := range []float64{0, -1, MinTrackable / 2, math.Inf(-1), math.NaN()} {
		if b := bucketOf(v); b != underflowBucket {
			t.Errorf("bucketOf(%g) = %d, want underflow", v, b)
		}
	}
	for _, v := range []float64{MaxTrackable, MaxTrackable * 10, math.Inf(1)} {
		if b := bucketOf(v); b != overflowBucket {
			t.Errorf("bucketOf(%g) = %d, want overflow", v, b)
		}
	}
}

// refDistributions are the reference shapes the quantile error bound is
// verified against: uniform, lognormal (heavy right tail), and bimodal
// (fast mode + slow mode, the classic RTT-under-load shape).
func refDistributions() map[string]func(*rand.Rand) float64 {
	return map[string]func(*rand.Rand) float64{
		"uniform": func(r *rand.Rand) float64 {
			return 1e-4 + r.Float64()*0.5
		},
		"lognormal": func(r *rand.Rand) float64 {
			return math.Exp(r.NormFloat64()*1.5 - 7) // median ~0.9 ms
		},
		"bimodal": func(r *rand.Rand) float64 {
			if r.Float64() < 0.9 {
				return 2e-4 + r.Float64()*1e-4
			}
			return 0.5 + r.Float64()*2
		},
	}
}

// TestQuantileError pins the acceptance bound: Quantile(p) must sit
// within one bucket width of the exact sorted-sample quantile under the
// same rank convention.
func TestQuantileError(t *testing.T) {
	const n = 200000
	for name, gen := range refDistributions() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			h := New()
			samples := make([]float64, n)
			for i := range samples {
				v := gen(rng)
				samples[i] = v
				h.Record(v)
			}
			sort.Float64s(samples)
			snap := h.Snapshot()
			if snap.Count != n {
				t.Fatalf("count = %d, want %d", snap.Count, n)
			}
			for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999} {
				rank := int(math.Ceil(p * n))
				if rank < 1 {
					rank = 1
				}
				exact := samples[rank-1]
				est := snap.Quantile(p)
				lo, hi := BucketBounds(bucketOf(exact))
				width := hi - lo
				if math.Abs(est-exact) > width+1e-12 {
					t.Errorf("p=%v: estimate %g vs exact %g, |err| %g > bucket width %g",
						p, est, exact, math.Abs(est-exact), width)
				}
			}
			// Edge quantiles return the observed extremes exactly.
			if got := snap.Quantile(0); got != samples[0] {
				t.Errorf("Quantile(0) = %g, want min %g", got, samples[0])
			}
			if got := snap.Quantile(1); got != samples[n-1] {
				t.Errorf("Quantile(1) = %g, want max %g", got, samples[n-1])
			}
		})
	}
}

func TestEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Record(1) // must not panic
	snap := nilH.Snapshot()
	if snap.Count != 0 || snap.Quantile(0.99) != 0 || snap.Mean() != 0 {
		t.Error("nil snapshot not empty")
	}
	h := New()
	snap = h.Snapshot()
	if snap.Min != 0 || snap.Max != 0 || snap.Quantile(0.5) != 0 {
		t.Error("empty snapshot min/max/quantile not zero")
	}
}

func TestClampedRecordsStillCount(t *testing.T) {
	h := New()
	h.Record(0)
	h.Record(1e-12)
	h.Record(200) // above MaxTrackable
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if snap.Counts[underflowBucket] != 2 || snap.Counts[overflowBucket] != 1 {
		t.Errorf("underflow/overflow = %d/%d, want 2/1",
			snap.Counts[underflowBucket], snap.Counts[overflowBucket])
	}
	if snap.Max != 200 {
		t.Errorf("max = %g, want 200 (overflow still tracked)", snap.Max)
	}
	// The p=1 quantile of an overflow-heavy histogram clamps to Max.
	if q := snap.Quantile(0.999); q != 200 {
		t.Errorf("overflow quantile = %g, want clamped 200", q)
	}
}

// TestInvalidSamplesCountedApart: a negative, NaN or +Inf sample is not a
// latency. It lands in Invalid and nowhere else — before, it was filed in
// the underflow bucket and added to the sum, which one NaN poisoned for
// good.
func TestInvalidSamplesCountedApart(t *testing.T) {
	h := New()
	h.Record(0.25)
	for _, v := range []float64{-1e-9, -3, math.Inf(-1), math.NaN(), math.Inf(1)} {
		h.Record(v)
	}
	h.Record(0.75)
	snap := h.Snapshot()
	if snap.Invalid != 5 || snap.Count != 2 {
		t.Fatalf("invalid/count = %d/%d, want 5/2", snap.Invalid, snap.Count)
	}
	if snap.Sum != 1 || snap.Min != 0.25 || snap.Max != 0.75 || snap.Mean() != 0.5 {
		t.Errorf("sum/min/max/mean = %g/%g/%g/%g, want 1/0.25/0.75/0.5", snap.Sum, snap.Min, snap.Max, snap.Mean())
	}
	var inBuckets int64
	for _, c := range snap.Counts {
		inBuckets += c
	}
	if inBuckets != snap.Count || snap.Counts[underflowBucket] != 0 {
		t.Errorf("buckets hold %d samples (%d underflow), want %d and 0", inBuckets, snap.Counts[underflowBucket], snap.Count)
	}
	if q := snap.Quantile(0); q != 0.25 {
		t.Errorf("Quantile(0) = %g, want the smallest valid sample 0.25", q)
	}

	// Only invalid samples: still an empty distribution.
	only := New()
	only.Record(math.NaN())
	if s := only.Snapshot(); s.Invalid != 1 || s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("invalid-only snapshot = count %d invalid %d min %g max %g", s.Count, s.Invalid, s.Min, s.Max)
	}
}

// TestHDRRecordZeroAlloc is the CI gate: Record must not allocate in
// steady state.
func TestHDRRecordZeroAlloc(t *testing.T) {
	h := New()
	h.Record(0.01)
	v := 0.001
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		h.Record(-v)
		v *= 1.0001
	}); allocs != 0 {
		t.Fatalf("Record allocates %v per call, want 0", allocs)
	}
}

// TestHDRSmallIntegerCounts pins what the count-valued instruments
// (rounds per market, reduction latency and emergency length in slots)
// get from a layout built for seconds: Count/Sum/Min/Max/Mean are exact
// for small integers, a 0 sits in the underflow bucket and a count of 128
// or more in overflow — both still counted and read back as Min and Max —
// and every quantile is within one bucket of the sorted-sample one.
func TestHDRSmallIntegerCounts(t *testing.T) {
	h := New()
	for v := 100; v >= 0; v-- {
		h.Record(float64(v))
	}
	snap := h.Snapshot()
	if snap.Count != 101 || snap.Sum != 5050 || snap.Min != 0 || snap.Max != 100 || snap.Mean() != 50 || snap.Invalid != 0 {
		t.Fatalf("count/sum/min/max/mean/invalid = %d/%g/%g/%g/%g/%d, want 101/5050/0/100/50/0",
			snap.Count, snap.Sum, snap.Min, snap.Max, snap.Mean(), snap.Invalid)
	}
	if snap.Counts[underflowBucket] != 1 || snap.Counts[overflowBucket] != 0 {
		t.Fatalf("underflow/overflow = %d/%d, want 1/0 (only the 0 is out of range)",
			snap.Counts[underflowBucket], snap.Counts[overflowBucket])
	}
	for v := 1; v <= 100; v++ {
		if lo, hi := BucketBounds(bucketOf(float64(v))); float64(v) < lo || float64(v) >= hi {
			t.Fatalf("%d filed in bucket [%g, %g)", v, lo, hi)
		}
	}
	for p := 0.0; p <= 1; p += 1.0 / 64 {
		// Same rank convention as Quantile: the ⌈p·n⌉-th of 0…100 is its
		// own rank minus one.
		want := math.Max(math.Ceil(p*101), 1) - 1
		if got := snap.Quantile(p); math.Abs(got-want) > want/subCount {
			t.Errorf("p%g = %g, sorted-sample quantile %g: off by more than one bucket", p*100, got, want)
		}
	}
	if q := snap.Quantile(1.0 / 101); q != 0 {
		t.Errorf("the lowest rank reads %g, want the 0 back as Min", q)
	}

	// A long emergency: 128 slots is the first count out of range.
	h.Record(127)
	h.Record(128)
	h.Record(300)
	snap = h.Snapshot()
	if snap.Count != 104 || snap.Sum != 5050+127+128+300 || snap.Max != 300 {
		t.Fatalf("count/sum/max = %d/%g/%g, want 104/5605/300", snap.Count, snap.Sum, snap.Max)
	}
	if snap.Counts[overflowBucket] != 2 {
		t.Fatalf("overflow holds %d samples, want 128 and 300", snap.Counts[overflowBucket])
	}
	if q := snap.Quantile(0.999); q != 300 {
		t.Errorf("p99.9 = %g, want the overflow read back as Max", q)
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Record(math.Exp(rng.NormFloat64() - 6))
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", snap.Count, goroutines*per)
	}
	var sum int64
	for _, c := range snap.Counts {
		sum += c
	}
	if sum != snap.Count {
		t.Errorf("bucket sum %d != count %d", sum, snap.Count)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i%1000) * 1e-5)
	}
}
