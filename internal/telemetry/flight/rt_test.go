package flight

import (
	"runtime/metrics"
	"testing"
	"time"

	"mpr/internal/telemetry/tsdb"
)

func TestRuntimeSamplerPublishes(t *testing.T) {
	store := tsdb.New(0)
	rs := NewRuntimeSampler(store)

	now := time.Unix(1000, 0)
	rs.Sample(now)

	snap := rs.Snapshot()
	if snap.Goroutines < 1 {
		t.Errorf("goroutines = %d, want ≥ 1", snap.Goroutines)
	}
	if snap.HeapInuseBytes <= 0 {
		t.Errorf("heap_inuse_bytes = %d, want > 0", snap.HeapInuseBytes)
	}
	if snap.UnixNS != now.UnixNano() {
		t.Errorf("unix_ns = %d, want %d", snap.UnixNS, now.UnixNano())
	}
	if snap.NumCPU < 1 || snap.GOMAXPROCS < 1 {
		t.Errorf("cpu counts out of range: %+v", snap)
	}
	for _, name := range []string{SeriesGoroutines, SeriesHeapInuse, SeriesGCPauseP99, SeriesSchedLatP99} {
		data := store.Query(tsdb.Query{Name: name})
		if len(data) != 1 || len(data[0].Points) != 1 {
			t.Errorf("series %s: want exactly 1 point, got %+v", name, data)
			continue
		}
		if got := data[0].Points[0].T; got != now.Unix() {
			t.Errorf("series %s point at %d, want %d", name, got, now.Unix())
		}
	}
}

func TestRuntimeSamplerNilSafe(t *testing.T) {
	var rs *RuntimeSampler
	rs.Sample(time.Now()) // must not panic
	if got := rs.Snapshot(); got != (RuntimeSnapshot{}) {
		t.Errorf("nil sampler snapshot = %+v, want zero", got)
	}
	// Nil store: sampling still works, the series are dropped.
	rs = NewRuntimeSampler(nil)
	rs.Sample(time.Unix(1, 0))
	if rs.Snapshot().Goroutines < 1 {
		t.Error("sampler with nil sinks lost the snapshot")
	}
}

// TestRuntimeSampleZeroAlloc is the CI gate on the steady-state record
// path: after the first sample warms the runtime/metrics histogram
// buffers, Sample must not allocate. This is the same discipline the
// registry and tsdb hot paths are held to.
func TestRuntimeSampleZeroAlloc(t *testing.T) {
	store := tsdb.New(0)
	rs := NewRuntimeSampler(store)
	now := time.Unix(1000, 0)
	rs.Sample(now) // warm-up: metrics.Read fills the histogram buffers

	avg := testing.AllocsPerRun(200, func() {
		now = now.Add(time.Second)
		rs.Sample(now)
	})
	if avg != 0 {
		t.Errorf("RuntimeSampler.Sample allocates %.1f per call, want 0", avg)
	}
}

func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 10, 80, 10},
		Buckets: []float64{0, 0.001, 0.01, 0.1, 1},
	}
	if got := histQuantile(h, 0.5); got != 0.1 {
		t.Errorf("p50 = %g, want 0.1", got)
	}
	if got := histQuantile(h, 0.99); got != 1.0 {
		t.Errorf("p99 = %g, want 1", got)
	}
	// Empty distribution → 0.
	empty := &metrics.Float64Histogram{Counts: []uint64{0, 0}, Buckets: []float64{0, 1, 2}}
	if got := histQuantile(empty, 0.99); got != 0 {
		t.Errorf("empty p99 = %g, want 0", got)
	}
}
