package alerts

import (
	"strings"
	"testing"

	"mpr/internal/telemetry/tsdb"
)

func rawSeries(name string, vals []float64) tsdb.SeriesData {
	pts := make([]tsdb.Point, len(vals))
	for i, v := range vals {
		pts[i] = tsdb.Point{T: int64(i), V: v}
	}
	return tsdb.SeriesData{Name: name, Points: pts}
}

func TestThresholdRuleConsecutiveRuns(t *testing.T) {
	rule := Rule{Name: "Unmet", Series: "u", Op: GT, Threshold: 0, ForSamples: 2}
	// Run of 1 (ignored), run of 3 (fires), trailing run of 2 (fires at
	// series end without a terminating clean sample).
	data := []tsdb.SeriesData{rawSeries("u",
		[]float64{0, 5, 0, 1, 2, 3, 0, 0, 7, 9})}
	f := Eval([]Rule{rule}, data)
	if len(f) != 2 {
		t.Fatalf("firings = %+v, want 2", f)
	}
	if f[0].From != 3 || f[0].To != 5 || f[0].Value != 3 || f[0].Samples != 3 {
		t.Fatalf("first firing = %+v", f[0])
	}
	if f[1].From != 8 || f[1].To != 9 || f[1].Value != 9 || f[1].Samples != 2 {
		t.Fatalf("trailing firing = %+v", f[1])
	}
}

func TestThresholdRuleLTUsesMin(t *testing.T) {
	rule := Rule{Name: "LowPrice", Series: "p", Op: LT, Threshold: 0.1}
	// An LT run reports its lowest sample as the worst value.
	data := []tsdb.SeriesData{rawSeries("p", []float64{0.9, 0.08, 0.05, 0.07, 0.5})}
	f := Eval([]Rule{rule}, data)
	if len(f) != 1 || f[0].Value != 0.05 || f[0].From != 1 || f[0].To != 3 || f[0].Samples != 3 {
		t.Fatalf("firings = %+v", f)
	}
}

func TestBurnRateRule(t *testing.T) {
	rule := Rule{Name: "Sustained", Series: "ov", Op: GT, Threshold: 0,
		WindowSamples: 10, BurnFrac: 0.5}
	// 4/10 violating in the trailing window: below the 50% burn.
	vals := []float64{1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0}
	if f := Eval([]Rule{rule}, []tsdb.SeriesData{rawSeries("ov", vals)}); len(f) != 0 {
		t.Fatalf("4/10 burn fired: %+v", f)
	}
	// 6/10 violating: fires, worst value and violating range reported.
	vals = []float64{0, 0, 0, 0, 0, 0, 2, 3, 9, 1, 0, 1, 1, 0, 0, 0}
	f := Eval([]Rule{rule}, []tsdb.SeriesData{rawSeries("ov", vals)})
	if len(f) != 1 {
		t.Fatalf("6/10 burn did not fire: %+v", f)
	}
	if f[0].Samples != 6 || f[0].Value != 9 || f[0].From != 6 || f[0].To != 12 {
		t.Fatalf("firing = %+v", f[0])
	}
	// Only the trailing window counts: a series that violated long ago
	// but is clean now stays quiet.
	vals = append([]float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, make([]float64, 10)...)
	if f := Eval([]Rule{rule}, []tsdb.SeriesData{rawSeries("ov", vals)}); len(f) != 0 {
		t.Fatalf("stale violations fired: %+v", f)
	}
}

func TestRuleSeriesNaming(t *testing.T) {
	rule := Rule{Name: "R", Series: "m", Op: GT, Threshold: 1}
	data := []tsdb.SeriesData{
		rawSeries("m", []float64{5}),
		rawSeries("other", []float64{5}),
	}
	f := Eval([]Rule{rule}, data)
	if len(f) != 1 {
		t.Fatalf("firings = %+v, want only the named series", f)
	}
	if f[0].Series != rule.Series {
		t.Fatalf("series = %q, want the rule's %q", f[0].Series, rule.Series)
	}
	if !strings.Contains(f[0].String(), "ALERT R") {
		t.Fatalf("String() = %q", f[0].String())
	}
}

func TestEvalStoreWindow(t *testing.T) {
	st := tsdb.New(128)
	s := st.Series("mpr_sim_reduction_unmet_w")
	for i := 0; i < 50; i++ {
		v := 0.0
		if i >= 30 && i < 35 {
			v = 100
		}
		s.Append(int64(i), v)
	}
	rules := []Rule{{Name: "Unmet", Series: "mpr_sim_reduction_unmet_w",
		Op: GT, Threshold: 0, ForSamples: 2}}
	f := EvalStore(rules, st, 0)
	if len(f) != 1 || f[0].From != 30 || f[0].To != 34 || f[0].Samples != 5 {
		t.Fatalf("firings = %+v", f)
	}
	if f[0].Series != rules[0].Series {
		t.Fatalf("firing series = %q, want the rule's %q", f[0].Series, rules[0].Series)
	}
	// A start inside the violation drops the samples before it.
	if f := EvalStore(rules, st, 32); len(f) != 1 || f[0].From != 32 || f[0].Samples != 3 {
		t.Fatalf("eval from 32 = %+v", f)
	}
	// Restricting the window past the violation silences it.
	if f := EvalStore(rules, st, 40); len(f) != 0 {
		t.Fatalf("windowed eval fired: %+v", f)
	}
	// Nil store is quiet.
	if f := EvalStore(rules, nil, 0); len(f) != 0 {
		t.Fatalf("nil store fired: %+v", f)
	}
}

// TestLiveRulesCountSamples drives a store the way mprd and mprload do:
// one sample per tick, every rule evaluated from startup on every tick,
// firings reported once through a window-0 Deduper. Past 1,000 samples
// the rules must still count samples: one continuous violation is one
// firing from its first sample, and isolated blips never make a run.
// A violation that outlasts the series' ring is still one firing,
// though its From moves forward as the ring drops its oldest samples.
func TestLiveRulesCountSamples(t *testing.T) {
	rule := Rule{Name: "Sustained", Series: "m", Op: GT, Threshold: 0, ForSamples: 3}
	live := func(capacity int, bad func(i int) bool) []Firing {
		st := tsdb.New(capacity)
		s := st.Series("m")
		d := NewDeduper(0)
		var fresh []Firing
		for i := 0; i <= 1100; i++ {
			v := 0.0
			if bad(i) {
				v = 1
			}
			s.Append(int64(i), v)
			for _, f := range EvalStore([]Rule{rule}, st, 0) {
				if d.Fresh(f) {
					fresh = append(fresh, f)
				}
			}
		}
		return fresh
	}
	t.Run("continuous", func(t *testing.T) {
		f := live(0, func(i int) bool { return i >= 975 && i <= 1040 })
		if len(f) != 1 || f[0].From != 975 || f[0].To != 977 || f[0].Samples != 3 {
			t.Fatalf("violation over 975–1040: fresh firings %v, want one over [975,977] (3 samples)", f)
		}
	})
	t.Run("blips", func(t *testing.T) {
		if f := live(0, func(i int) bool { return i == 1010 || i == 1020 || i == 1030 }); len(f) != 0 {
			t.Fatalf("isolated blips fired %v", f)
		}
	})
	t.Run("outlasts ring", func(t *testing.T) {
		// Two violations through a 16-sample ring: 100–400 wraps it many
		// times over; 500–1100 is still open when the feed stops.
		f := live(16, func(i int) bool { return (i >= 100 && i <= 400) || i >= 500 })
		if len(f) != 2 || f[0].From != 100 || f[0].To != 102 || f[1].From != 500 || f[1].To != 502 {
			t.Fatalf("violations over 100–400 and 500–1100 in a 16-sample ring: fresh firings %v, want one from 100 and one from 500", f)
		}
	})
}

func TestDefaultRuleSetsAreWellFormed(t *testing.T) {
	for _, rules := range [][]Rule{SimRules(), ManagerRules(), LoadRules()} {
		for _, r := range rules {
			if r.Name == "" || r.Series == "" {
				t.Fatalf("malformed rule %+v", r)
			}
			if r.WindowSamples > 0 && (r.BurnFrac <= 0 || r.BurnFrac >= 1) {
				t.Fatalf("burn rule %s has bad fraction %g", r.Name, r.BurnFrac)
			}
			if r.String() == "" {
				t.Fatalf("rule %s has empty String()", r.Name)
			}
		}
	}
}

func TestLoadRulesFire(t *testing.T) {
	// A degraded load run: p99 above 1s for a stretch, p999 brushing the
	// round timeout once, and a quarter of the window below full fleet
	// attendance. Every load rule should fire exactly once.
	data := []tsdb.SeriesData{
		rawSeries("mpr_load_rtt_p99_seconds",
			[]float64{0.2, 0.3, 1.2, 1.4, 1.3, 0.4}),
		rawSeries("mpr_load_rtt_p999_seconds",
			[]float64{0.5, 1.95, 0.6}),
		rawSeries("mpr_load_agents_connected_frac",
			[]float64{1, 1, 0.97, 0.95, 0.9, 1, 0.98, 0.96, 1, 1}),
	}
	firings := Eval(LoadRules(), data)
	byRule := map[string]int{}
	for _, f := range firings {
		byRule[f.Rule]++
	}
	for _, want := range []string{"RoundTripP99High", "RoundTripP999High", "AgentAttrition"} {
		if byRule[want] != 1 {
			t.Errorf("%s fired %d times, want 1 (firings %+v)", want, byRule[want], firings)
		}
	}

	// A healthy run fires nothing.
	healthy := []tsdb.SeriesData{
		rawSeries("mpr_load_rtt_p99_seconds", []float64{0.1, 0.2, 0.15}),
		rawSeries("mpr_load_rtt_p999_seconds", []float64{0.3, 0.4}),
		rawSeries("mpr_load_agents_connected_frac", []float64{1, 1, 1, 1}),
	}
	if f := Eval(LoadRules(), healthy); len(f) != 0 {
		t.Errorf("healthy run fired %+v", f)
	}
}

// TestEvictionBurstRule exercises the manager rule over the per-sample
// eviction series: one sick agent evicted once stays quiet; sustained
// evictions across the window fire.
func TestEvictionBurstRule(t *testing.T) {
	// 1 eviction in 10 samples: a single slow agent, not a burst.
	quiet := []tsdb.SeriesData{
		rawSeries("mpr_mgr_evictions",
			[]float64{0, 0, 1, 0, 0, 0, 0, 0, 0, 0}),
	}
	if f := Eval(ManagerRules(), quiet); len(f) != 0 {
		t.Errorf("single eviction fired %+v", f)
	}
	// Evictions in 4 of the trailing 10 samples: the fleet is stalling.
	burst := []tsdb.SeriesData{
		rawSeries("mpr_mgr_evictions",
			[]float64{0, 1, 3, 0, 2, 0, 0, 1, 0, 0}),
	}
	firings := Eval(ManagerRules(), burst)
	if len(firings) != 1 || firings[0].Rule != "EvictionBurst" {
		t.Fatalf("burst firings = %+v, want one EvictionBurst", firings)
	}
	if firings[0].Value != 3 || firings[0].Samples != 4 {
		t.Errorf("firing = %+v, want worst 3 over 4 samples", firings[0])
	}
}

// firing is a test shorthand.
func firingAt(rule, series string, from int64) Firing {
	return Firing{Rule: rule, Series: series, From: from, To: from + 1, Value: 1, Samples: 1}
}

// TestDeduperExactRepeats pins the window-0 policy mprd and mprload use
// live: re-evaluating an overlapping window returns the same violation —
// same From, or a later From inside the span already seen — and it must
// be suppressed, while a new violation window, or the same window on a
// different rule or series, is fresh.
func TestDeduperExactRepeats(t *testing.T) {
	d := NewDeduper(0)
	f1 := firingAt("Rule", "s", 10)
	if !d.Fresh(f1) {
		t.Fatal("first firing not fresh")
	}
	if d.Fresh(f1) {
		t.Fatal("exact repeat accepted")
	}
	// Same window, extended To (a threshold run that kept growing): the
	// From identifies it, so it stays suppressed.
	extended := f1
	extended.To, extended.Samples = 20, 5
	if d.Fresh(extended) {
		t.Fatal("extended repeat accepted")
	}
	// The same run after the ring dropped its first samples: From moved
	// forward but stays inside the span seen so far, which it extends.
	trimmed := Firing{Rule: "Rule", Series: "s", From: 20, To: 30, Value: 1, Samples: 11}
	if d.Fresh(trimmed) {
		t.Fatal("trimmed repeat accepted")
	}
	if d.Fresh(firingAt("Rule", "s", 30)) {
		t.Fatal("repeat starting at the extended end accepted")
	}
	if !d.Fresh(firingAt("Rule", "s", 50)) {
		t.Fatal("new violation window suppressed")
	}
	if !d.Fresh(firingAt("Other", "s", 10)) || !d.Fresh(firingAt("Rule", "s2", 10)) {
		t.Fatal("distinct rule/series suppressed")
	}
	// Interleaved re-evaluations must not resurrect old firings.
	if d.Fresh(f1) {
		t.Fatal("old firing resurrected after later accepts")
	}
}

// TestDeduperCooldownWindow pins the window>0 policy the flight recorder
// uses as its per-rule dump cooldown: a rule that keeps firing with an
// advancing From produces one fresh firing per window.
func TestDeduperCooldownWindow(t *testing.T) {
	d := NewDeduper(60)
	if !d.Fresh(firingAt("Burst", "e", 100)) {
		t.Fatal("first firing not fresh")
	}
	for from := int64(101); from <= 160; from += 7 {
		if d.Fresh(firingAt("Burst", "e", from)) {
			t.Fatalf("firing at %d inside the 60s cooldown accepted", from)
		}
	}
	if !d.Fresh(firingAt("Burst", "e", 161)) {
		t.Fatal("firing past the cooldown suppressed")
	}
	// The cooldown is per rule+series: another rule dumps independently.
	if !d.Fresh(firingAt("Heap", "h", 120)) {
		t.Fatal("independent rule suppressed by another rule's cooldown")
	}
	// Stale re-evaluations of pre-cooldown history stay suppressed.
	if d.Fresh(firingAt("Burst", "e", 100)) || d.Fresh(firingAt("Burst", "e", 130)) {
		t.Fatal("stale firing accepted after cooldown advanced")
	}
}

// TestRuntimeRulesFire sanity-checks the runtime-health rules over
// synthetic mpr_rt_* series shaped like a goroutine leak, a heap blowout,
// and a GC pause regression.
func TestRuntimeRulesFire(t *testing.T) {
	rules := RuntimeRules()
	healthy := []tsdb.SeriesData{
		rawSeries("mpr_rt_goroutines", []float64{90, 120, 250, 300}),
		rawSeries("mpr_rt_heap_inuse_bytes", []float64{1 << 20, 2 << 20}),
		rawSeries("mpr_rt_gc_pause_p99_seconds", []float64{0.001, 0.002}),
	}
	if f := Eval(rules, healthy); len(f) != 0 {
		t.Fatalf("healthy runtime fired: %+v", f)
	}
	leak := make([]float64, 12)
	for i := range leak {
		leak[i] = 150000
	}
	sick := []tsdb.SeriesData{
		rawSeries("mpr_rt_goroutines", leak),
		rawSeries("mpr_rt_heap_inuse_bytes", []float64{5e9, 5e9, 5e9}),
		rawSeries("mpr_rt_gc_pause_p99_seconds", []float64{0.2, 0.3}),
	}
	f := Eval(rules, sick)
	fired := map[string]bool{}
	for _, x := range f {
		fired[x.Rule] = true
	}
	for _, want := range []string{"GoroutineGrowth", "HeapHigh", "GCPauseP99"} {
		if !fired[want] {
			t.Errorf("%s did not fire: %+v", want, f)
		}
	}
}
