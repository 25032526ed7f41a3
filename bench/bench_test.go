package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// shortScale keeps the package's tests fast: a small fleet, two markets
// a cycle, a one-day trace.
var shortScale = scale{
	agents: 48, levels: 2, warmup: 1,
	core:      coreSizes{clear: 400, stream: 800, interactive: 120, baseline: 60},
	denseDays: 1, sparseBursts: 3,
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 0.90, true}, {999, 0.90, true},
		{1000, 0.99, true}, {2270, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestTimingReportsSampleCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i+1) / 1000 // 1 ms … 1 s
	}
	m := timing("x_ms", "ms", xs, 1e3)
	if m.N != 1000 || math.Abs(m.Value-500.5) > 1e-9 {
		t.Errorf("median %v over n=%d, want 500.5 over 1000", m.Value, m.N)
	}
	if !strings.HasPrefix(m.Tail, "p99=") {
		t.Errorf("tail %q, want the p99 (10 of 1000 samples beyond it)", m.Tail)
	}
	if short := timing("x_ms", "ms", xs[:50], 1e3); short.Tail != "" {
		t.Errorf("50 samples support no tail percentile, got %q", short.Tail)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs) // statistics.quantiles(range(1, 11), n=4)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := quantile(xs, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("quantile(0.9) = %v, want 9.1", got)
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if !reflect.DeepEqual(genFleet(7, 200), genFleet(7, 200)) {
		t.Error("genFleet differs between two calls with one seed")
	}
	if reflect.DeepEqual(genFleet(7, 200), genFleet(8, 200)) {
		t.Error("genFleet ignores its seed")
	}
	_, ps1, alt1 := genPool(7, 300)
	_, ps2, alt2 := genPool(7, 300)
	for i := range ps1 {
		if ps1[i].Bid != ps2[i].Bid || alt1[i] != alt2[i] {
			t.Fatalf("genPool participant %d differs between two calls with one seed", i)
		}
	}
	dense := simSpecs(shortScale)["sim_dense"]
	a, err := dense.buildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := dense.buildTrace(); !reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Error("dense trace differs between two builds")
	}
}

func TestFactChangingBetweenLapsFails(t *testing.T) {
	r := newResult("x", 1, false)
	r.fact("rounds", 22)
	r.fact("rounds", 22)
	r.fact("price.q", 0.5)
	r.fact("price.q", 0.5*(1+1e-12)) // inside the 1e-9 price tolerance
	if r.Failed != 0 {
		t.Fatalf("stable facts failed: %v", r.Failures)
	}
	r.fact("rounds", 23)
	if r.Failed != 1 {
		t.Errorf("a count that changed between laps must fail the run")
	}
	if d := diffFacts(map[string]float64{"a": 1, "price.b": 2}, map[string]float64{"a": 1, "price.b": 2.1, "c": 3}); len(d) != 2 {
		t.Errorf("diffFacts = %v, want the changed price and the unexpected fact", d)
	}
}

// runSection runs one workload in this process, in one slice.
func runSection(name string, seed int64, seconds float64, traced bool, sc scale) (*Result, error) {
	s, err := openSection(name, seed, traced, sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s.measure(seconds)
	res, err := finishSection(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// runBoth runs one workload at short scale, untraced then traced, and
// requires every operation to pass and both passes to compute the same.
func runBoth(t *testing.T, name string) (untraced, traced *Result) {
	t.Helper()
	var out [2]*Result
	for i, tr := range []bool{false, true} {
		res, err := runSection(name, defaultSeed, 0.05, tr, shortScale)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s traced=%v: %d of %d operations failed: %v", name, tr, res.Failed, res.Attempted, res.Failures)
		}
		out[i] = res
	}
	if d := diffFacts(out[0].Facts, out[1].Facts); len(d) != 0 {
		t.Errorf("%s: traced pass computes something else: %v", name, d)
	}
	return out[0], out[1]
}

// TestBenchmarkJSONMatchesOutput runs every workload of BENCHMARK.json
// at short scale and requires the metrics printed to be exactly the ones
// the file lists, by name and unit, and never zero end to end.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	cache := map[string][2]*Result{}
	for _, wl := range spec.Workloads {
		var passes [2][]*Result
		for _, name := range strings.Split(wl.Name, "-") {
			if _, ok := cache[name]; !ok {
				u, tr := runBoth(t, name)
				cache[name] = [2]*Result{u, tr}
			}
			passes[0] = append(passes[0], cache[name][0])
			passes[1] = append(passes[1], cache[name][1])
		}
		for i, pass := range passes {
			line, problems := merge(pass)
			if len(problems) != 0 {
				t.Errorf("%s: %v", wl.Name, problems)
			}
			got := map[string]string{}
			for name, v := range line.Metrics {
				got[name] = v.Unit
				if i == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.Name, name, v.Value)
				}
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s trace=%d: metrics printed and BENCHMARK.json differ:\n%s", wl.Name, i, diffNames(want[i], got))
			}
		}
	}
}

func diffNames(want, got map[string]string) string {
	var out []string
	for n, u := range want {
		if g, ok := got[n]; !ok {
			out = append(out, "not printed: "+n)
		} else if g != u {
			out = append(out, n+": unit "+g+", file says "+u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			out = append(out, "not in BENCHMARK.json: "+n)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestOutputSchema pins the two JSON shapes the command writes: the
// contract's last line and the -out file.
func TestOutputSchema(t *testing.T) {
	_, traced := runBoth(t, "core_clear")
	line, _ := merge([]*Result{traced})
	line.Correct = true
	var generic map[string]any
	data, _ := json.Marshal(line)
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	if got := keys(generic); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("contract line keys = %v", got)
	}
	for name, v := range generic["metrics"].(map[string]any) {
		if got := keys(v.(map[string]any)); !reflect.DeepEqual(got, []string{"unit", "value"}) {
			t.Fatalf("metric %s keys = %v", name, got)
		}
	}

	data, _ = json.Marshal(outFile{Schema: outSchema, Host: host(), Seed: 1, Results: []*Result{traced}})
	generic = nil
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	if got := keys(generic); !reflect.DeepEqual(got, []string{"host", "results", "schema", "seed"}) {
		t.Errorf("-out keys = %v", got)
	}
	res := generic["results"].([]any)[0].(map[string]any)
	if got := keys(res); !reflect.DeepEqual(got, []string{"attempted", "facts", "failed", "metrics", "section", "seed", "spans", "traced"}) {
		t.Errorf("result keys = %v", got)
	}
	span := res["spans"].([]any)[0].(map[string]any)
	for _, k := range []string{"id", "name", "start_ns", "end_ns"} {
		if _, ok := span[k]; !ok {
			t.Errorf("span lacks %q: %v", k, span)
		}
	}
}

func keys(m map[string]any) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestFleetAccountReconciles drives the traced fleet pass over both
// transports and requires the layer-by-layer account to add up.
func TestFleetAccountReconciles(t *testing.T) {
	for name := range fleetSpecs {
		_, traced := runBoth(t, name)
		got := map[string]float64{}
		for _, m := range traced.Metrics {
			got[m.Name] = m.Value
		}
		if got["agentproto.rounds_per_market"] < 2 {
			t.Errorf("%s: %v rounds per market", name, got["agentproto.rounds_per_market"])
		}
		if got["agentproto.bytes_per_agent_round"] <= 0 || got["agentproto.agent_writes_per_agent_round"] < 1 {
			t.Errorf("%s: counting conns saw %v bytes, %v agent writes per agent-round", name,
				got["agentproto.bytes_per_agent_round"], got["agentproto.agent_writes_per_agent_round"])
		}
		if (got["agentproto.mgr_writes_per_agent_round"] > 0) == fleetSpecs[name].tcp {
			t.Errorf("%s: manager writes per agent-round = %v; measurable on net.Pipe only", name, got["agentproto.mgr_writes_per_agent_round"])
		}
		if got["telemetry.spans_dropped"] != 0 {
			t.Errorf("%s: %v spans dropped", name, got["telemetry.spans_dropped"])
		}
		if len(traced.Spans) == 0 {
			t.Errorf("%s: traced pass kept no spans", name)
		}
	}
}
