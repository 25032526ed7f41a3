package flight

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpr/internal/telemetry"
	"mpr/internal/telemetry/alerts"
	"mpr/internal/telemetry/tsdb"
)

// testRecorder builds a recorder over a small live telemetry runtime
// with a deterministic clock.
func testRecorder(t *testing.T, dir string) (*Recorder, *telemetry.Tracer, *tsdb.Store) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(64)
	store := tsdb.New(0)
	rec, err := New(Config{
		Registry:   reg,
		Tracer:     tracer,
		Store:      store,
		Dir:        dir,
		Cooldown:   60 * time.Second,
		ConfigEcho: map[string]string{"listen": ":9090", "flight": dir},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, tracer, store
}

func firing(rule string, from int64) alerts.Firing {
	return alerts.Firing{
		Rule: rule, Series: "mpr_mgr_evictions",
		From: from, To: from + 10, Value: 3, Samples: 4,
	}
}

func TestDumpWritesValidBundle(t *testing.T) {
	dir := t.TempDir()
	rec, tracer, _ := testRecorder(t, dir)

	tracer.Emit(telemetry.Event{Name: "eviction", Label: "deadline_budget"})
	rec.SampleRuntime(time.Unix(4990, 0))
	path, err := rec.OnFirings(time.Unix(5000, 0), []alerts.Firing{firing("EvictionBurst", 4950)})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "flight-000001-alert.json"); path != want {
		t.Errorf("bundle path = %q, want %q", path, want)
	}

	b, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger == nil || b.Trigger.Rule != "EvictionBurst" {
		t.Errorf("trigger = %+v, want EvictionBurst", b.Trigger)
	}
	if len(b.Firings) != 1 || b.Firings[0].Rule != "EvictionBurst" {
		t.Errorf("firings = %+v, want the recorded one", b.Firings)
	}
	if len(b.Events) != 1 || b.Events[0].Name != "eviction" {
		t.Errorf("events = %+v, want the eviction event", b.Events)
	}
	if !strings.Contains(b.GoroutineProfile, "goroutine profile:") {
		t.Error("bundle is missing a goroutine profile")
	}
	if b.Config["listen"] != ":9090" {
		t.Errorf("config echo = %+v", b.Config)
	}
	if b.Build.GoVersion == "" {
		t.Error("build info missing")
	}
	// The runtime series window must be in the bundle: SampleRuntime and
	// the dump-time refresh each appended one point.
	var rt *tsdb.SeriesData
	for i := range b.Series {
		if b.Series[i].Name == SeriesGoroutines {
			rt = &b.Series[i]
		}
	}
	if rt == nil || len(rt.Points) < 2 {
		t.Fatalf("bundle has no %s window: %+v", SeriesGoroutines, rt)
	}
}

// TestOnFiringsCooldown pins the dump-on-alert policy: a rule that keeps
// firing as its window advances produces exactly one bundle per cooldown
// period, and a different rule dumps independently.
func TestOnFiringsCooldown(t *testing.T) {
	dir := t.TempDir()
	rec, _, _ := testRecorder(t, dir)
	now := time.Unix(5000, 0)

	countBundles := func() int {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}

	if path, err := rec.OnFirings(now, []alerts.Firing{firing("EvictionBurst", 1000)}); err != nil || path == "" {
		t.Fatalf("first firing: path=%q err=%v, want a bundle", path, err)
	}
	// Same rule re-firing inside the 60 s cooldown: suppressed.
	for _, from := range []int64{1000, 1020, 1060} {
		if path, err := rec.OnFirings(now, []alerts.Firing{firing("EvictionBurst", from)}); err != nil || path != "" {
			t.Fatalf("from=%d: path=%q err=%v, want suppression", from, path, err)
		}
	}
	if got := countBundles(); got != 1 {
		t.Fatalf("bundles on disk = %d, want exactly 1", got)
	}
	// Past the cooldown: dumps again.
	if path, err := rec.OnFirings(now, []alerts.Firing{firing("EvictionBurst", 1061)}); err != nil || path == "" {
		t.Fatalf("post-cooldown: path=%q err=%v, want a bundle", path, err)
	}
	// A different rule has its own cooldown track.
	if path, err := rec.OnFirings(now, []alerts.Firing{firing("HeapHigh", 1002)}); err != nil || path == "" {
		t.Fatalf("other rule: path=%q err=%v, want a bundle", path, err)
	}
	if got := countBundles(); got != 3 {
		t.Fatalf("bundles on disk = %d, want 3", got)
	}

	st := rec.Status()
	if st.Dumps != 3 || len(st.Firings) != 6 {
		t.Errorf("status dumps=%d firings=%d, want 3 and 6", st.Dumps, len(st.Firings))
	}
}

// TestOnFiringsCooldownWindow pins the cooldown track itself, one firing
// per call: a rule whose From keeps advancing triggers once per window,
// the track is per rule and series, and stale re-evaluations of history
// from before the last trigger never trigger again.
func TestOnFiringsCooldownWindow(t *testing.T) {
	rec, _, _ := testRecorder(t, t.TempDir())
	now := time.Unix(5000, 0)
	triggers := func(rule, series string, from int64) bool {
		t.Helper()
		f := firing(rule, from)
		f.Series = series
		path, err := rec.OnFirings(now, []alerts.Firing{f})
		if err != nil {
			t.Fatal(err)
		}
		return path != ""
	}
	if !triggers("Burst", "e", 100) {
		t.Fatal("first firing did not trigger")
	}
	for from := int64(101); from <= 160; from += 7 {
		if triggers("Burst", "e", from) {
			t.Fatalf("firing at %d inside the 60s cooldown triggered", from)
		}
	}
	if !triggers("Burst", "e", 161) {
		t.Fatal("firing past the cooldown suppressed")
	}
	// The cooldown is per rule and series: others trigger independently.
	if !triggers("Heap", "h", 120) || !triggers("Burst", "h", 120) {
		t.Fatal("independent track suppressed by another track's cooldown")
	}
	// Stale re-evaluations of pre-cooldown history stay suppressed.
	if triggers("Burst", "e", 100) || triggers("Burst", "e", 130) {
		t.Fatal("stale firing triggered after the cooldown advanced")
	}
}

func TestFiringRingWraps(t *testing.T) {
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < firingHistory+6; i++ {
		rec.OnFirings(time.Unix(5000, 0), []alerts.Firing{firing("R", i)})
	}
	st := rec.Status()
	if len(st.Firings) != firingHistory {
		t.Fatalf("retained %d firings, want %d", len(st.Firings), firingHistory)
	}
	for i, f := range st.Firings {
		if want := int64(6 + i); f.From != want {
			t.Errorf("firings[%d].From = %d, want %d (oldest-first window)", i, f.From, want)
		}
	}
}

// TestOnFiringsZeroAlloc gates the steady-state record path: once the
// history ring is full and the rule has a cooldown entry, retaining
// another firing without a Dir must not allocate.
func TestOnFiringsZeroAlloc(t *testing.T) {
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	fs := []alerts.Firing{firing("EvictionBurst", 1000)}
	for i := 0; i < firingHistory; i++ {
		rec.OnFirings(now, fs)
	}
	avg := testing.AllocsPerRun(200, func() { rec.OnFirings(now, fs) })
	if avg != 0 {
		t.Errorf("OnFirings allocates %.1f per call on a full ring, want 0", avg)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var rec *Recorder
	rec.SampleRuntime(time.Now())
	if path, err := rec.OnFirings(time.Now(), []alerts.Firing{firing("R", 1)}); path != "" || err != nil {
		t.Errorf("nil OnFirings = %q, %v", path, err)
	}
	if path, err := rec.Dump(time.Now(), ReasonManual, nil); path != "" || err != nil {
		t.Errorf("nil Dump = %q, %v", path, err)
	}
	if st := rec.Status(); st.Enabled {
		t.Error("nil recorder reports enabled")
	}
}

func TestHTTPSurface(t *testing.T) {
	dir := t.TempDir()
	rec, _, _ := testRecorder(t, dir)
	rec.SampleRuntime(time.Unix(4999, 0))

	h := rec.Handler()

	// GET status.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"enabled": true`) {
		t.Errorf("GET status = %d %q", rr.Code, rr.Body.String())
	}

	// GET on the dump endpoint is refused; POST dumps.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight/dump", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET dump = %d, want 405", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/debug/flight/dump", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST dump = %d %q", rr.Code, rr.Body.String())
	}
	want := filepath.Join(dir, "flight-000001-manual.json")
	if !strings.Contains(rr.Body.String(), want) {
		t.Errorf("dump response %q does not name %q", rr.Body.String(), want)
	}
	if _, err := ReadBundleFile(want); err != nil {
		t.Errorf("manual bundle invalid: %v", err)
	}

	// The status carries the latest runtime snapshot.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if !strings.Contains(rr.Body.String(), `"goroutines"`) {
		t.Errorf("GET status has no runtime snapshot: %q", rr.Body.String())
	}

	// A nil recorder still serves both endpoints.
	var nilRec *Recorder
	rr = httptest.NewRecorder()
	nilRec.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"enabled": false`) {
		t.Errorf("nil GET status = %d %q", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	nilRec.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/debug/flight/dump", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("nil POST dump = %d, want 503", rr.Code)
	}
}

func TestWriteBundleAtomic(t *testing.T) {
	dir := t.TempDir()
	rec, _, _ := testRecorder(t, dir)
	path := filepath.Join(dir, "bundle.json")
	if err := rec.DumpTo(time.Unix(5000, 0), path, ReasonSLO, &alerts.Firing{Rule: "RoundTripP99High", Series: "s", From: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	if _, err := ReadBundleFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestBundleHDRCountsExact records count-valued instruments — small
// integers, a zero below the trackable range and a length above it — into
// a registry and checks a bundle's hdr_histograms carries each one's exact
// count and sum, and the clamped samples' own values as min and max.
func TestBundleHDRCountsExact(t *testing.T) {
	reg := telemetry.NewRegistry()
	rounds := reg.HDR("rounds", "Rounds per market.")
	rounds.Record(27)
	rounds.Record(1)
	latency := reg.HDR("latency_slots", "Slots from order to application.")
	latency.Record(0)
	latency.Record(2)
	duration := reg.HDR("duration_slots", "Emergency length in slots.")
	duration.Record(151)

	rec, err := New(Config{Registry: reg, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	path, err := rec.Dump(time.Unix(5000, 0), ReasonManual, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string][2]float64{ // name → {count, sum}
		"rounds":         {2, 28},
		"latency_slots":  {2, 2},
		"duration_slots": {1, 151},
	} {
		got, ok := b.HDRs[name]
		if !ok || float64(got.Count) != w[0] || got.Sum != w[1] {
			t.Errorf("hdr_histograms[%s] = %+v (present %v), want count %g sum %g", name, got, ok, w[0], w[1])
		}
	}
	if d := b.HDRs["duration_slots"]; d.Max != 151 {
		t.Errorf("overflowed duration reads back Max %g, want 151", d.Max)
	}
	if l := b.HDRs["latency_slots"]; l.Min != 0 {
		t.Errorf("underflowed latency reads back Min %g, want 0", l.Min)
	}
}
