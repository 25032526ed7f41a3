package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNop(t *testing.T) {
	var r *Registry
	// Every method must be callable and free on the nil registry / nil
	// metrics — this is the zero-overhead instrumentation contract.
	c := r.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	g := r.Gauge("y", "")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	h := r.HDR("z", "")
	h.Record(2)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must read empty")
	}
	f := r.CounterFamily("w", "", "mode")
	f.With("a").Inc()
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mpr_test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("mpr_test_total", "help"); c2 != c {
		t.Fatal("get-or-create must return the same counter")
	}
	g := r.Gauge("mpr_test_g", "")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	s := r.Snapshot()
	if got := s.Counter("mpr_test_total"); got != 5 {
		t.Fatalf("snapshot counter = %d, want 5", got)
	}
	if got := s.Gauges["mpr_test_g"]; got != 1.5 {
		t.Fatalf("snapshot gauge = %g, want 1.5", got)
	}
	// Absent and wrong-kind reads are zero.
	if s.Counter("absent") != 0 || s.Counter("mpr_test_g") != 0 {
		t.Fatal("absent/mismatched snapshot counter must read 0")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("dual", "")
}

// TestConcurrentCountersAndHistogram exercises the atomic/striped paths
// under the race detector and checks nothing is lost.
func TestConcurrentCountersAndHistogram(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve inside the goroutine to also race the get-or-create
			// path, as init-time instrumentation does.
			c := r.Counter("c", "")
			g := r.Gauge("g", "")
			h := r.HDR("h", "")
			f := r.CounterFamily("f", "", "mode")
			fc := f.With("m")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Record(float64(j % 200))
				fc.Inc()
			}
		}()
	}
	wg.Wait()
	const total = goroutines * perG
	s := r.Snapshot()
	if got := s.Counter("c"); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := s.Gauges["g"]; got != perG-1 {
		t.Fatalf("gauge = %g, want the last value every writer set, %d", got, perG-1)
	}
	hs := s.HDR("h")
	if hs.Count != total {
		t.Fatalf("histogram count = %d, want %d", hs.Count, total)
	}
	// Small integers sum exactly: 8 goroutines × 10 laps of 0…199.
	if want := float64(goroutines * perG / 200 * (199 * 200 / 2)); hs.Sum != want || hs.Min != 0 || hs.Max != 199 {
		t.Fatalf("histogram sum/min/max = %g/%g/%g, want %g/0/199", hs.Sum, hs.Min, hs.Max, want)
	}
	var bucketSum int64
	for _, c := range r.HDR("h", "").Snapshot().Counts {
		bucketSum += c
	}
	if bucketSum != total {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
	if got := s.Counter(`f{mode="m"}`); got != total {
		t.Fatalf("family child = %d, want %d", got, total)
	}
}

func TestSnapshotAndFamilyExpansion(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(7.5)
	r.HDR("c", "").Record(1.5)
	f := r.CounterFamily("d_total", "", "mode")
	f.With("closed_form").Add(2)
	f.With("bisection").Inc()
	s := r.Snapshot()
	if s.Counter("a_total") != 3 {
		t.Fatalf("a_total = %d", s.Counter("a_total"))
	}
	if s.Gauges["b"] != 7.5 {
		t.Fatalf("b = %g", s.Gauges["b"])
	}
	if c := s.HDR("c"); c.Count != 1 || c.Sum != 1.5 || c.Mean != 1.5 {
		t.Fatalf("c = %+v, want one sample of 1.5", c)
	}
	if s.Counter(`d_total{mode="closed_form"}`) != 2 || s.Counter(`d_total{mode="bisection"}`) != 1 {
		t.Fatalf("family expansion wrong: %v", s.Counters)
	}
	// Nil-snapshot reads are safe.
	var nilSnap *Snapshot
	if nilSnap.Counter("x") != 0 || nilSnap.HDR("y").Count != 0 {
		t.Fatal("nil snapshot reads must be zero")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpr_searches_total", "Price searches.").Add(2)
	r.Gauge("mpr_overload_w", "Overload depth.").Set(120.5)
	h := r.HDR("mpr_rounds", "Rounds.")
	h.Record(1)
	h.Record(3)
	h.Record(9)
	fam := r.CounterFamily("mpr_clears_total", "Clears.", "mode")
	fam.With("closed_form").Add(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP mpr_searches_total Price searches.",
		"# TYPE mpr_searches_total counter",
		"mpr_searches_total 2",
		"# TYPE mpr_overload_w gauge",
		"mpr_overload_w 120.5",
		"# HELP mpr_rounds Rounds.",
		"# TYPE mpr_rounds summary",
		`mpr_rounds{quantile="0.5"} 3.03125`, // rank ⌈0.5·3⌉ = 2: midpoint of 3's bucket [3, 3.0625)
		`mpr_rounds{quantile="0.999"} 9`,     // 9's bucket midpoint, clamped to Max
		"mpr_rounds_sum 13\n",
		"mpr_rounds_count 3\n",
		"mpr_rounds_invalid 0\n",
		`mpr_clears_total{mode="closed_form"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "histogram") || strings.Contains(out, "_bucket") {
		t.Fatalf("exposition still carries a fixed-bucket series:\n%s", out)
	}
}
