// Package experiments reproduces every table and figure of the MPR
// paper's evaluation (plus the ablations called out in DESIGN.md §4). Each
// experiment is a named runner producing printable tables; cmd/mprbench
// regenerates any of them from the command line, bench_test.go wraps each
// in a testing.B benchmark, and EXPERIMENTS.md records the outputs.
//
// The experiment IDs follow the paper: "t1" is Table I, "f8" is Fig. 8,
// and so on; "a1".."a4" are the repository's design ablations.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"mpr/internal/runner"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/trace"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives every random choice; experiments are deterministic
	// for a fixed seed.
	Seed int64
	// Quick trims trace lengths and sweep sizes so the full suite runs
	// in seconds-to-minutes instead of tens of minutes. The full-scale
	// runs reproduce the paper's setup (90-day Gaia horizon etc.).
	Quick bool
	// Parallel bounds the worker pool that executes a sweep's
	// independent simulation cells: 0 uses GOMAXPROCS, 1 forces serial
	// execution, n > 1 runs up to n cells concurrently. Parallel and
	// serial sweeps emit bit-identical tables (DESIGN.md §9); timing
	// experiments (f10, a1, a6) always run their *timed* sections
	// serially so co-scheduled cells cannot distort the measurements.
	Parallel int
	// Days overrides every trace-driven experiment's horizon in days
	// (0 keeps the per-experiment default). Benchmarks and tests use it
	// to shrink the matrix without touching the experiment logic.
	Days int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// workers returns the sweep worker-pool bound for the options.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runner.DefaultWorkers()
}

// gaiaDays returns the simulated horizon for Gaia-based experiments.
func (o Options) gaiaDays() int {
	if o.Days > 0 {
		return o.Days
	}
	if o.Quick {
		return 14
	}
	return 92
}

// otherTraceDays returns the horizon for the PIK/RICC/Metacentrum study.
// These clusters are large (RICC peaks above 20,000 cores), so their
// horizons are shorter than Gaia's.
func (o Options) otherTraceDays() int {
	if o.Days > 0 {
		return o.Days
	}
	if o.Quick {
		return 6
	}
	return 45
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry []Experiment

func register(id, title string, run func(Options) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID looks an experiment up by its ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// --- shared trace and simulation caches -------------------------------

// cacheEntry is one singleflight slot: the first caller to claim the key
// runs the generator inside the entry's once; every concurrent caller
// for the same key blocks on that once and then reads the shared result.
// The cache mutex is never held while generating, so unrelated keys
// build concurrently and nested lookups (a simulation cell fetching its
// trace) cannot deadlock.
type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// runKey names one simulator run: the trace by pointer, and every other
// field of the normalized configuration as its JSON encoding.
type runKey struct {
	trace *trace.Trace
	cfg   string
}

var (
	cacheMu    sync.Mutex
	traceCache = map[trace.GenConfig]*cacheEntry[*trace.Trace]{}
	simCache   = map[runKey]*cacheEntry[*sim.Result]{}
	splitCache = map[*trace.Trace]*cacheEntry[[2]*trace.Trace]{}
)

// singleflight returns the cached value for key, running gen exactly
// once per key no matter how many sweep cells ask concurrently.
func singleflight[K comparable, V any](m map[K]*cacheEntry[V], key K, gen func() (V, error)) (V, error) {
	cacheMu.Lock()
	e, ok := m[key]
	if !ok {
		e = &cacheEntry[V]{}
		m[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.val, e.err = gen() })
	return e.val, e.err
}

// gaiaTrace builds (and caches) the Gaia workload for the options.
func gaiaTrace(o Options) (*trace.Trace, error) {
	return cachedTrace(trace.GaiaConfig(o.seed()).WithDays(o.gaiaDays()))
}

// cachedTrace generates (and caches) a workload trace. Concurrent cells
// requesting the same trace generate it exactly once; the returned trace
// is shared across cells and must be treated as immutable.
func cachedTrace(cfg trace.GenConfig) (*trace.Trace, error) {
	return singleflight(traceCache, cfg, func() (*trace.Trace, error) {
		return trace.Generate(cfg)
	})
}

// keyOf names the run cfg describes by its normalized configuration: a
// field left at zero and one set to its default name the same run, so
// figures that sweep one factor from a common base share the base's run.
// The trace is held by pointer, so a trace built afresh never matches
// another, not even one that had the same address before it was
// collected.
func keyOf(cfg sim.Config) (runKey, error) {
	if err := cfg.Normalize(); err != nil {
		return runKey{}, err
	}
	tr := cfg.Trace
	cfg.Trace = nil
	b, err := json.Marshal(cfg)
	return runKey{tr, string(b)}, err
}

// cachedRun executes (and caches) a simulation. Each distinct normalized
// configuration is simulated once, however many figures and concurrent
// cells ask for it; the shared Result is read-only.
func cachedRun(cfg sim.Config) (*sim.Result, error) {
	key, err := keyOf(cfg)
	if err != nil {
		return nil, err
	}
	return singleflight(simCache, key, func() (*sim.Result, error) {
		return simRun(cfg)
	})
}

// runAll fans cfgs out across the options' worker pool through the run
// cache. Results come back in the order of cfgs, so every table rendered
// from them is identical at any worker count.
func runAll(o Options, cfgs []sim.Config) ([]*sim.Result, error) {
	return runner.Map(o.workers(), cfgs, func(_ int, c sim.Config) (*sim.Result, error) {
		return cachedRun(c)
	})
}

// simRun is every experiment's way into the simulator; the bit-identity
// tests swap in the fixed-step reference to hold whole tables to it.
var simRun = sim.Run

// ResetCaches clears the shared caches (used by benchmarks that want cold
// runs).
func ResetCaches() {
	cacheMu.Lock()
	traceCache = map[trace.GenConfig]*cacheEntry[*trace.Trace]{}
	simCache = map[runKey]*cacheEntry[*sim.Result]{}
	splitCache = map[*trace.Trace]*cacheEntry[[2]*trace.Trace]{}
	cacheMu.Unlock()
}

// gaiaSweep runs (cached) Gaia simulations for the given oversubscription
// levels and algorithms, fanning the matrix across the options' worker
// pool.
func gaiaSweep(o Options, oversubs []float64, algos []sim.Algorithm) (map[float64]map[sim.Algorithm]*sim.Result, error) {
	tr, err := gaiaTrace(o)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, x := range oversubs {
		for _, algo := range algos {
			cfgs = append(cfgs, sim.Config{Trace: tr, OversubPct: x, Algorithm: algo, Seed: o.seed()})
		}
	}
	results, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[float64]map[sim.Algorithm]*sim.Result)
	for i, c := range cfgs {
		if out[c.OversubPct] == nil {
			out[c.OversubPct] = make(map[sim.Algorithm]*sim.Result)
		}
		out[c.OversubPct][c.Algorithm] = results[i]
	}
	return out, nil
}
