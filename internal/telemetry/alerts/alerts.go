// Package alerts evaluates SLO alert rules over recorded time series —
// threshold rules ("metric above X for N consecutive samples") and
// burn-rate rules ("metric violating in more than F of the trailing W
// samples"). mprd and mprload evaluate their rules live through a
// Scorecard on every sampler tick; mprbench evaluates the simulator rules
// once over exported series.
package alerts

import (
	"fmt"

	"mpr/internal/telemetry/tsdb"
)

// Op is a comparison operator applied to each sample's value.
type Op string

const (
	GT Op = ">"
	LT Op = "<"
)

// Rule is one alert rule. Leave WindowSamples zero for a threshold rule
// (fires on ForSamples consecutive violations); set WindowSamples and
// BurnFrac for a burn-rate rule (fires when the violating fraction of
// the trailing WindowSamples exceeds BurnFrac).
type Rule struct {
	Name      string  `json:"name"`
	Series    string  `json:"series"`
	Op        Op      `json:"op"`
	Threshold float64 `json:"threshold"`
	// ForSamples is the consecutive-violation count a threshold rule
	// needs before firing (minimum 1).
	ForSamples int `json:"for_samples,omitempty"`
	// WindowSamples > 0 switches the rule to burn-rate mode.
	WindowSamples int     `json:"window_samples,omitempty"`
	BurnFrac      float64 `json:"burn_frac,omitempty"`
	Help          string  `json:"help,omitempty"`
}

func (r Rule) String() string {
	if r.WindowSamples > 0 {
		return fmt.Sprintf("%s: %s %s %g in >%.0f%% of trailing %d samples",
			r.Name, r.Series, r.Op, r.Threshold, r.BurnFrac*100, r.WindowSamples)
	}
	return fmt.Sprintf("%s: %s %s %g for %d samples",
		r.Name, r.Series, r.Op, r.Threshold, r.forSamples())
}

func (r Rule) forSamples() int {
	if r.ForSamples < 1 {
		return 1
	}
	return r.ForSamples
}

// violates reports whether one sample breaks the rule.
func (r Rule) violates(p tsdb.Point) bool {
	if r.Op == LT {
		return p.V < r.Threshold
	}
	return p.V > r.Threshold // GT
}

// worse reports whether a is a worse violation than b under the rule's
// direction.
func (r Rule) worse(a, b float64) bool {
	if r.Op == LT {
		return a < b
	}
	return a > b
}

// Firing is one fired alert: the rule, the name of the series that
// fired it, the violating time range, the worst violating value, and how
// many samples violated.
type Firing struct {
	Rule    string  `json:"rule"`
	Series  string  `json:"series"`
	From    int64   `json:"from"`
	To      int64   `json:"to"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Help    string  `json:"help,omitempty"`
}

func (f Firing) String() string {
	return fmt.Sprintf("ALERT %s on %s: value %g over [%d,%d] (%d samples)",
		f.Rule, f.Series, f.Value, f.From, f.To, f.Samples)
}

// eval evaluates the rules over already-queried series data and returns
// every firing, in rule order then series order (deterministic given
// deterministic input order, as Store.Query provides).
func eval(rules []Rule, data []tsdb.SeriesData) []Firing {
	var out []Firing
	for _, r := range rules {
		for _, sd := range data {
			if sd.Name != r.Series {
				continue
			}
			if r.WindowSamples > 0 {
				if f, ok := r.evalBurn(sd); ok {
					out = append(out, f)
				}
			} else {
				out = append(out, r.evalThreshold(sd)...)
			}
		}
	}
	return out
}

// Scorecard is a live SLO scorecard: the rules, and for each rule and
// series the To of the last violation it reported. Re-evaluating the
// retained history returns the same violation again — with a later To as
// a run grows, and a later From once the series' ring has dropped its
// first samples — so a firing that starts no later than that To is a
// repeat, which extends it, and only a later one is reported. The zero
// value with Rules set is ready to use; it is not safe for concurrent
// use.
type Scorecard struct {
	Rules []Rule
	last  map[firingKey]int64
}

// firingKey names one (rule, series) track without building a string.
type firingKey struct{ rule, series string }

// Eval evaluates every rule over the store's retained history and
// returns each violation once, in rule order then time order: the first
// Eval of a scorecard returns every firing in the store.
func (s *Scorecard) Eval(st *tsdb.Store) []Firing {
	if s.last == nil {
		s.last = make(map[firingKey]int64)
	}
	var out []Firing
	for _, r := range s.Rules {
		for _, f := range eval([]Rule{r}, st.Query(tsdb.Query{Name: r.Series})) {
			k := firingKey{f.Rule, f.Series}
			to, seen := s.last[k]
			if seen && f.From <= to {
				s.last[k] = max(to, f.To)
				continue
			}
			s.last[k] = f.To
			out = append(out, f)
		}
	}
	return out
}

// evalThreshold emits one firing per maximal run of >= ForSamples
// consecutive violating samples.
func (r Rule) evalThreshold(sd tsdb.SeriesData) []Firing {
	var out []Firing
	need := r.forSamples()
	run := 0
	var worst float64
	var from int64
	for i, p := range sd.Points {
		bad := r.violates(p)
		if bad {
			if run == 0 {
				from = p.T
				worst = p.V
			} else if r.worse(p.V, worst) {
				worst = p.V
			}
			run++
		}
		if (!bad || i == len(sd.Points)-1) && run >= need {
			to := p.T
			if !bad {
				to = sd.Points[i-1].T
			}
			out = append(out, Firing{
				Rule: r.Name, Series: sd.Name,
				From: from, To: to, Value: worst, Samples: run, Help: r.Help,
			})
		}
		if !bad {
			run = 0
		}
	}
	return out
}

// evalBurn fires when the violating fraction of the trailing
// WindowSamples samples exceeds BurnFrac. The fraction is always of the
// whole window: while a series holds fewer samples, the ones not yet
// taken count as quiet, so one early blip is not a burn.
func (r Rule) evalBurn(sd tsdb.SeriesData) (Firing, bool) {
	pts := sd.Points
	if len(pts) == 0 {
		return Firing{}, false
	}
	if len(pts) > r.WindowSamples {
		pts = pts[len(pts)-r.WindowSamples:]
	}
	var bad int
	var worst float64
	var from, to int64
	for _, p := range pts {
		if !r.violates(p) {
			continue
		}
		if bad == 0 {
			from = p.T
			worst = p.V
		} else if r.worse(p.V, worst) {
			worst = p.V
		}
		to = p.T
		bad++
	}
	if bad == 0 || float64(bad)/float64(r.WindowSamples) <= r.BurnFrac {
		return Firing{}, false
	}
	return Firing{
		Rule: r.Name, Series: sd.Name,
		From: from, To: to, Value: worst, Samples: bad, Help: r.Help,
	}, true
}

// SimRules are the SLO rules mprbench evaluates over exported simulator
// series (virtual-time samples, one per one-minute slot).
func SimRules() []Rule {
	return []Rule{
		{
			Name: "SustainedOverload", Series: "mpr_sim_overload_w",
			Op: GT, Threshold: 0, WindowSamples: 300, BurnFrac: 0.5,
			Help: "cluster power above the oversubscribed cap in most of the trailing 5h — emergencies are not clearing the overload",
		},
		{
			Name: "MarketRoundsRegression", Series: "mpr_sim_market_rounds",
			Op: GT, Threshold: 48, ForSamples: 1,
			Help: "an MPR-INT market needed more rounds than the paper's convergence envelope",
		},
		{
			Name: "UnmetReduction", Series: "mpr_sim_reduction_unmet_w",
			Op: GT, Threshold: 0, ForSamples: 2,
			Help: "cleared reduction below the emergency target for consecutive slots",
		},
	}
}

// LoadRules are the SLO rules mprload evaluates live while driving a
// synthetic agent fleet: tail-latency ceilings over the sampled HDR
// quantile series and an attrition rule over the connected-agent
// fraction. Thresholds assume the default 2 s round timeout — a p99
// round turnaround near half the timeout means the market is one
// scheduling hiccup away from dropping bids.
func LoadRules() []Rule {
	return []Rule{
		{
			Name: "RoundTripP99High", Series: "mpr_load_rtt_p99_seconds",
			Op: GT, Threshold: 1.0, ForSamples: 3,
			Help: "p99 agent round turnaround above 1s for consecutive samples — the fleet is lagging the market",
		},
		{
			Name: "RoundTripP999High", Series: "mpr_load_rtt_p999_seconds",
			Op: GT, Threshold: 1.9, ForSamples: 1,
			Help: "p999 agent round turnaround within the 2s round timeout margin — bids are about to be dropped",
		},
		{
			Name: "AgentAttrition", Series: "mpr_load_agents_connected_frac",
			Op: LT, Threshold: 0.99, WindowSamples: 20, BurnFrac: 0.25,
			Help: "more than 1% of the fleet disconnected in a quarter of the trailing window — agents are dying under load",
		},
	}
}

// RuntimeRules are the process-health rules over the flight recorder's
// mpr_rt_* runtime series (see internal/telemetry/flight). mprd appends
// them to its live scorecard when the recorder is enabled; without the
// runtime sampler the series never exist and the rules are inert.
func RuntimeRules() []Rule {
	return []Rule{
		{
			Name: "GoroutineGrowth", Series: "mpr_rt_goroutines",
			Op: GT, Threshold: 100000, WindowSamples: 10, BurnFrac: 0.5,
			Help: "goroutine population sustained above 100k — at one reader per connection that is ~800 MB of stacks at C1M, the scaling cliff the roadmap flags",
		},
		{
			Name: "HeapHigh", Series: "mpr_rt_heap_inuse_bytes",
			Op: GT, Threshold: 4 << 30, ForSamples: 3,
			Help: "heap in-use above 4 GiB for consecutive samples — the market state no longer fits the container budget",
		},
		{
			Name: "GCPauseP99", Series: "mpr_rt_gc_pause_p99_seconds",
			Op: GT, Threshold: 0.05, ForSamples: 2,
			Help: "p99 GC pause above 50 ms — stop-the-world time is eating into the round deadline budget",
		},
	}
}

// ManagerRules are the rules mprd evaluates live on every sampler tick.
func ManagerRules() []Rule {
	return []Rule{
		{
			Name: "MarketRoundsRegression", Series: "mpr_mgr_market_rounds",
			Op: GT, Threshold: 40, ForSamples: 1,
			Help: "a live market needed more clearing rounds than expected",
		},
		{
			Name: "UnmetReduction", Series: "mpr_mgr_market_unmet_w",
			Op: GT, Threshold: 0, ForSamples: 1,
			Help: "a live market cleared less reduction than the emergency target",
		},
		{
			Name: "EvictionBurst", Series: "mpr_mgr_evictions",
			Op: GT, Threshold: 0, WindowSamples: 10, BurnFrac: 0.3,
			Help: "slow-agent evictions in over 30% of the trailing sampling window — the fleet is stalling, not just one sick agent",
		},
	}
}
