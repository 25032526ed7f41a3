package alerts

import (
	"fmt"
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
	f := eval([]Rule{rule}, data)
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
	f := eval([]Rule{rule}, data)
	if len(f) != 1 || f[0].Value != 0.05 || f[0].From != 1 || f[0].To != 3 || f[0].Samples != 3 {
		t.Fatalf("firings = %+v", f)
	}
}

func TestBurnRateRule(t *testing.T) {
	rule := Rule{Name: "Sustained", Series: "ov", Op: GT, Threshold: 0,
		WindowSamples: 10, BurnFrac: 0.5}
	// 4/10 violating in the trailing window: below the 50% burn.
	vals := []float64{1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0}
	if f := eval([]Rule{rule}, []tsdb.SeriesData{rawSeries("ov", vals)}); len(f) != 0 {
		t.Fatalf("4/10 burn fired: %+v", f)
	}
	// 6/10 violating: fires, worst value and violating range reported.
	vals = []float64{0, 0, 0, 0, 0, 0, 2, 3, 9, 1, 0, 1, 1, 0, 0, 0}
	f := eval([]Rule{rule}, []tsdb.SeriesData{rawSeries("ov", vals)})
	if len(f) != 1 {
		t.Fatalf("6/10 burn did not fire: %+v", f)
	}
	if f[0].Samples != 6 || f[0].Value != 9 || f[0].From != 6 || f[0].To != 12 {
		t.Fatalf("firing = %+v", f[0])
	}
	// Only the trailing window counts: a series that violated long ago
	// but is clean now stays quiet.
	vals = append([]float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, make([]float64, 10)...)
	if f := eval([]Rule{rule}, []tsdb.SeriesData{rawSeries("ov", vals)}); len(f) != 0 {
		t.Fatalf("stale violations fired: %+v", f)
	}
}

// TestBurnRateShortSeries: a series younger than its window burns only
// once its violations are more than BurnFrac of the whole window — the
// samples not yet taken count as quiet. For every burn rule of every rule
// set, one violating sample in a one-, two- or five-sample series fires
// nothing, and ⌊BurnFrac·W⌋ + 1 violating samples fire once.
func TestBurnRateShortSeries(t *testing.T) {
	var burns int
	for _, rules := range [][]Rule{SimRules(), LoadRules(), RuntimeRules(), ManagerRules()} {
		for _, r := range rules {
			if r.WindowSamples == 0 {
				continue
			}
			burns++
			bad, quiet := r.Threshold+1, r.Threshold
			if r.Op == LT {
				bad = r.Threshold - 1
			}
			series := func(n, violating int) []float64 {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = quiet
					if i >= n-violating {
						vals[i] = bad
					}
				}
				return vals
			}
			for _, n := range []int{1, 2, 5} {
				if f := eval([]Rule{r}, []tsdb.SeriesData{rawSeries(r.Series, series(n, 1))}); len(f) != 0 {
					t.Errorf("%s: one violation in %d samples fired %+v", r.Name, n, f)
				}
			}
			k := int(r.BurnFrac*float64(r.WindowSamples)) + 1
			if f := eval([]Rule{r}, []tsdb.SeriesData{rawSeries(r.Series, series(k, k))}); len(f) != 1 || f[0].Samples != k {
				t.Errorf("%s: %d violations of a %d-sample window fired %+v, want once", r.Name, k, r.WindowSamples, f)
			}
		}
	}
	if burns < 4 {
		t.Fatalf("%d burn rules, want the four of the rule sets", burns)
	}
}

func TestRuleSeriesNaming(t *testing.T) {
	rule := Rule{Name: "R", Series: "m", Op: GT, Threshold: 1}
	data := []tsdb.SeriesData{
		rawSeries("m", []float64{5}),
		rawSeries("other", []float64{5}),
	}
	f := eval([]Rule{rule}, data)
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
	f := (&Scorecard{Rules: rules}).Eval(st)
	if len(f) != 1 || f[0].From != 30 || f[0].To != 34 || f[0].Samples != 5 {
		t.Fatalf("firings = %+v", f)
	}
	if f[0].Series != rules[0].Series {
		t.Fatalf("firing series = %q, want the rule's %q", f[0].Series, rules[0].Series)
	}
	// Nil store is quiet.
	if f := (&Scorecard{Rules: rules}).Eval(nil); len(f) != 0 {
		t.Fatalf("nil store fired: %+v", f)
	}
}

// TestLiveRulesCountSamples drives a store the way mprd and mprload do:
// one sample per tick, and a Scorecard evaluated over the whole retained
// history on every tick. Past 1,000 samples
// the rules must still count samples: one continuous violation is one
// firing from its first sample, and isolated blips never make a run.
// A violation that outlasts the series' ring is still one firing,
// though its From moves forward as the ring drops its oldest samples.
func TestLiveRulesCountSamples(t *testing.T) {
	rule := Rule{Name: "Sustained", Series: "m", Op: GT, Threshold: 0, ForSamples: 3}
	live := func(capacity int, bad func(i int) bool) []Firing {
		st := tsdb.New(capacity)
		s := st.Series("m")
		sc := &Scorecard{Rules: []Rule{rule}}
		var fresh []Firing
		for i := 0; i <= 1100; i++ {
			v := 0.0
			if bad(i) {
				v = 1
			}
			s.Append(int64(i), v)
			fresh = append(fresh, sc.Eval(st)...)
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
	// round timeout once, and over a quarter of the 20-sample window below
	// full fleet attendance. Every load rule should fire exactly once.
	data := []tsdb.SeriesData{
		rawSeries("mpr_load_rtt_p99_seconds",
			[]float64{0.2, 0.3, 1.2, 1.4, 1.3, 0.4}),
		rawSeries("mpr_load_rtt_p999_seconds",
			[]float64{0.5, 1.95, 0.6}),
		rawSeries("mpr_load_agents_connected_frac",
			[]float64{1, 1, 0.97, 0.95, 0.9, 1, 0.98, 0.96, 1, 1, 1, 1, 1, 0.97, 0.98, 1, 1, 1, 1, 1}),
	}
	firings := eval(LoadRules(), data)
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
	if f := eval(LoadRules(), healthy); len(f) != 0 {
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
	if f := eval(ManagerRules(), quiet); len(f) != 0 {
		t.Errorf("single eviction fired %+v", f)
	}
	// Evictions in 4 of the trailing 10 samples: the fleet is stalling.
	burst := []tsdb.SeriesData{
		rawSeries("mpr_mgr_evictions",
			[]float64{0, 1, 3, 0, 2, 0, 0, 1, 0, 0}),
	}
	firings := eval(ManagerRules(), burst)
	if len(firings) != 1 || firings[0].Rule != "EvictionBurst" {
		t.Fatalf("burst firings = %+v, want one EvictionBurst", firings)
	}
	if firings[0].Value != 3 || firings[0].Samples != 4 {
		t.Errorf("firing = %+v, want worst 3 over 4 samples", firings[0])
	}
}

// TestScorecardReportsOnce evaluates a scorecard over a store on every
// tick, as mprd and mprload do: re-evaluating an overlapping window
// returns the same violation — same From, a later To as the run grows, or
// a later From once the ring has dropped the run's first samples — and it
// is reported once, while a new violation window, or a window on another
// rule or series, is reported.
func TestScorecardReportsOnce(t *testing.T) {
	st := tsdb.New(16)
	s, s2 := st.Series("s"), st.Series("s2")
	sc := &Scorecard{Rules: []Rule{
		{Name: "Rule", Series: "s", Op: GT},
		{Name: "Other", Series: "s", Op: GT},
		{Name: "Rule", Series: "s2", Op: GT},
	}}
	type track struct {
		rule, series string
		from         int64
	}
	tracks := func(fs []Firing) []track {
		out := []track{}
		for _, f := range fs {
			out = append(out, track{f.Rule, f.Series, f.From})
		}
		return out
	}
	tick := func(t0 int64, v, v2 float64) []track {
		s.Append(t0, v)
		s2.Append(t0, v2)
		return tracks(sc.Eval(st))
	}
	want := func(what string, got []track, w ...track) {
		t.Helper()
		if w == nil {
			w = []track{}
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s: reported %v, want %v", what, got, w)
		}
	}

	want("first violation", tick(10, 1, 0), track{"Rule", "s", 10}, track{"Other", "s", 10})
	want("exact repeat", tracks(sc.Eval(st)))
	for i := int64(11); i <= 40; i++ {
		var w []track
		if i == 20 {
			// Same rule on another series, inside the span s has reported.
			w = []track{{"Rule", "s2", 20}}
		}
		want(fmt.Sprintf("tick %d (run grows)", i), tick(i, 1, b2f(i >= 20)), w...)
	}
	if from := st.Query(tsdb.Query{Name: "s"})[0].Points[0].T; from <= 10 {
		t.Fatalf("ring still holds t=%d; the trimmed case is not exercised", from)
	}
	want("run ends", tick(41, 0, 1))
	want("new window", tick(42, 1, 1), track{"Rule", "s", 42}, track{"Other", "s", 42})
	want("no resurrection", tracks(sc.Eval(st)))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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
	if f := eval(rules, healthy); len(f) != 0 {
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
	f := eval(rules, sick)
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
