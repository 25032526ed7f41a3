package flight

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"mpr/internal/telemetry/tsdb"
)

// Runtime-health series the sampler records (wall-clock Unix-second
// timestamps, like every daemon series). These are the first series in
// the repo observing the Go runtime itself — the ROADMAP's C1M item
// flags ~100k reader goroutines ≈ 800 MB of stacks as an unmeasured
// risk, and mpr_rt_goroutines is the measurement.
const (
	SeriesGoroutines  = "mpr_rt_goroutines"
	SeriesHeapInuse   = "mpr_rt_heap_inuse_bytes"
	SeriesGCPauseP99  = "mpr_rt_gc_pause_p99_seconds"
	SeriesSchedLatP99 = "mpr_rt_sched_latency_p99_seconds"
)

// runtime/metrics keys backing the series. Heap in-use is the sum of the
// two heap classes the runtime splits it into (objects + unused spans),
// matching the old runtime.MemStats.HeapInuse.
const (
	rmGoroutines  = "/sched/goroutines:goroutines"
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmHeapUnused  = "/memory/classes/heap/unused:bytes"
	rmGCPauses    = "/gc/pauses:seconds"
	rmSchedLat    = "/sched/latencies:seconds"
)

// RuntimeSnapshot is the point-in-time runtime-health digest: the runtime
// section of GET /debug/flight and of a flight bundle.
type RuntimeSnapshot struct {
	UnixNS     int64 `json:"unix_ns"`
	Goroutines int64 `json:"goroutines"`
	// HeapInuseBytes is spans-in-use for the heap: live and dead objects
	// plus unused span tails, the number that becomes RSS pressure.
	HeapInuseBytes int64 `json:"heap_inuse_bytes"`
	// GCPauseP99Seconds and SchedLatencyP99Seconds are p99s over the
	// runtime's cumulative stop-the-world pause and scheduler-latency
	// distributions since process start.
	GCPauseP99Seconds      float64 `json:"gc_pause_p99_seconds"`
	SchedLatencyP99Seconds float64 `json:"sched_latency_p99_seconds"`
	NumCPU                 int     `json:"num_cpu"`
	GOMAXPROCS             int     `json:"gomaxprocs"`
}

// RuntimeSampler reads runtime/metrics into tsdb series and the latest
// snapshot. Construction resolves every handle and pre-sizes the sample
// slice; Sample on a constructed sampler is allocation-free in steady
// state (runtime/metrics.Read reuses the Float64Histogram buffers it
// placed in the slice on the first read) — test-enforced, matching the
// registry/tsdb hot-path discipline. A nil *RuntimeSampler is a no-op.
type RuntimeSampler struct {
	samples []metrics.Sample

	sGoroutines, sHeap, sGCPause, sSchedLat *tsdb.Series

	mu   sync.Mutex
	last RuntimeSnapshot
}

// NewRuntimeSampler builds a sampler publishing into the store as
// mpr_rt_* series. A nil store drops the series and keeps the snapshot.
func NewRuntimeSampler(store *tsdb.Store) *RuntimeSampler {
	return &RuntimeSampler{
		samples: []metrics.Sample{
			{Name: rmGoroutines},
			{Name: rmHeapObjects},
			{Name: rmHeapUnused},
			{Name: rmGCPauses},
			{Name: rmSchedLat},
		},
		sGoroutines: store.Series(SeriesGoroutines),
		sHeap:       store.Series(SeriesHeapInuse),
		sGCPause:    store.Series(SeriesGCPauseP99),
		sSchedLat:   store.Series(SeriesSchedLatP99),
	}
}

// Sample reads the runtime metrics once and publishes them: series
// points (Unix-second timestamps) for windows and alerts, and the latest
// snapshot for /debug/flight. No-op on nil.
func (r *RuntimeSampler) Sample(now time.Time) {
	if r == nil {
		return
	}
	metrics.Read(r.samples)
	snap := RuntimeSnapshot{
		UnixNS:     now.UnixNano(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if v := &r.samples[0].Value; v.Kind() == metrics.KindUint64 {
		snap.Goroutines = int64(v.Uint64())
	}
	var heap uint64
	if v := &r.samples[1].Value; v.Kind() == metrics.KindUint64 {
		heap += v.Uint64()
	}
	if v := &r.samples[2].Value; v.Kind() == metrics.KindUint64 {
		heap += v.Uint64()
	}
	snap.HeapInuseBytes = int64(heap)
	if v := &r.samples[3].Value; v.Kind() == metrics.KindFloat64Histogram {
		snap.GCPauseP99Seconds = histQuantile(v.Float64Histogram(), 0.99)
	}
	if v := &r.samples[4].Value; v.Kind() == metrics.KindFloat64Histogram {
		snap.SchedLatencyP99Seconds = histQuantile(v.Float64Histogram(), 0.99)
	}

	t := now.Unix()
	r.sGoroutines.Append(t, float64(snap.Goroutines))
	r.sHeap.Append(t, float64(snap.HeapInuseBytes))
	r.sGCPause.Append(t, snap.GCPauseP99Seconds)
	r.sSchedLat.Append(t, snap.SchedLatencyP99Seconds)

	r.mu.Lock()
	r.last = snap
	r.mu.Unlock()
}

// Snapshot returns the most recent sample (zero value before the first
// Sample or on nil).
func (r *RuntimeSampler) Snapshot() RuntimeSnapshot {
	if r == nil {
		return RuntimeSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// histQuantile returns the q-quantile upper bound of a runtime/metrics
// bucketed distribution: the smallest bucket boundary below which at
// least q of the mass lies. The runtime's histograms use (-Inf, +Inf)
// sentinel edges; a +Inf upper edge falls back to the bucket's lower
// edge so the returned value is always finite. 0 when the distribution
// is empty. Allocation-free.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			// Buckets[i] and Buckets[i+1] bound bucket i.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
