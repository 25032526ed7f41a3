// Package flight is the black-box flight recorder: an always-on,
// fixed-capacity retention layer over the repo's telemetry primitives
// (registry snapshot, span ring, tsdb window, alert firings, and a
// runtime-health sampler over runtime/metrics) that dumps a versioned
// mprflight/v3 bundle when something goes wrong. Like an aircraft FDR
// the recorder costs (almost) nothing in steady state — the record path
// is allocation-free and test-enforced — and pays out on a trigger: a
// fresh alert firing handed to OnFirings (one bundle per rule and series
// per cooldown), SIGQUIT, process exit, or a manual POST
// /debug/flight/dump.
package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"mpr/internal/telemetry"
	"mpr/internal/telemetry/alerts"
	"mpr/internal/telemetry/tsdb"
)

// Config wires a Recorder into a process' observability runtime. Every
// source is optional (nil sources leave the corresponding bundle
// sections empty); Dir is required for Dump but not DumpTo.
type Config struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Store    *tsdb.Store

	// Dir is where Dump writes flight-NNNNNN-<reason>.json bundles.
	Dir string
	// Cooldown is the per-rule dump suppression window for alert
	// triggers: a firing dumps only when its From is more than Cooldown
	// after the From of the last firing of the same rule and series that
	// dumped (Unix seconds in the daemons). Default 60s.
	Cooldown time.Duration
	// ConfigEcho is the flag/config echo stored in every bundle.
	ConfigEcho map[string]string
	// Logf, when set, receives one line per dump (and per failed dump).
	Logf func(format string, args ...any)
}

// A bundle carries the tsdb series from bundleWindow before its trigger;
// the recorder retains the last firingHistory alert firings.
const (
	bundleWindow  = 10 * time.Minute
	firingHistory = 64
)

// Recorder retains recent telemetry and writes mprflight/v3 bundles on
// triggers. All methods are safe for concurrent use, and a nil
// *Recorder is a no-op (the disabled recorder), matching the nil-safety
// discipline of the rest of internal/telemetry.
type Recorder struct {
	cfg Config
	rt  *RuntimeSampler

	mu       sync.Mutex
	cooldown map[cooldownKey]int64 // From of the last firing that triggered, per rule and series
	firings  telemetry.Ring[alerts.Firing]
	dumpSeq  int
	last     DumpInfo
}

// DumpInfo describes the most recent bundle written.
type DumpInfo struct {
	Path   string `json:"path,omitempty"`
	Reason string `json:"reason,omitempty"`
	UnixNS int64  `json:"unix_ns,omitempty"`
}

// Status is the GET /debug/flight payload.
type Status struct {
	Enabled  bool            `json:"enabled"`
	Dir      string          `json:"dir,omitempty"`
	Cooldown string          `json:"cooldown"`
	Dumps    int             `json:"dumps"`
	Last     DumpInfo        `json:"last_dump"`
	Firings  []alerts.Firing `json:"firings"`
	Runtime  RuntimeSnapshot `json:"runtime"`
}

// New builds a recorder, creating cfg.Dir when set. The runtime-health
// sampler registers its mpr_rt_* series immediately so the
// rules in alerts.RuntimeRules have something to evaluate from the
// first SampleRuntime tick.
func New(cfg Config) (*Recorder, error) {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 60 * time.Second
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: create dir: %w", err)
		}
	}
	return &Recorder{
		cfg:      cfg,
		rt:       NewRuntimeSampler(cfg.Store),
		cooldown: make(map[cooldownKey]int64),
		firings:  telemetry.NewRing[alerts.Firing](firingHistory),
	}, nil
}

// SampleRuntime takes one runtime-health sample (goroutines, heap,
// GC pause p99, sched latency p99) into the mpr_rt_* series and the
// snapshot. Allocation-free in steady state; no-op on nil.
func (r *Recorder) SampleRuntime(now time.Time) {
	if r == nil {
		return
	}
	r.rt.Sample(now)
}

// history returns the retained firings oldest-first. Caller holds r.mu.
func (r *Recorder) history() []alerts.Firing {
	return r.firings.Last(make([]alerts.Firing, 0, r.firings.Len()), -1)
}

// cooldownKey names one (rule, series) cooldown track without building
// a string.
type cooldownKey struct{ rule, series string }

// OnFirings is the recorder's one way in for alert firings. It takes the
// fresh firings of one evaluation (each violation once, as
// alerts.Scorecard reports them) and retains every one in the history
// ring; the first whose From lies more than Cooldown after the last
// trigger of its rule and series triggers an alert-reason bundle carrying
// it. At most one bundle is written per call — the remaining firings
// past their cooldowns still restart them and ride along in the bundle's
// firing history. Returns the bundle path ("" when nothing dumped).
// Allocation-free once each rule and series has a cooldown entry and
// nothing dumps; no-op on nil, and never dumps without a Dir.
func (r *Recorder) OnFirings(now time.Time, fs []alerts.Firing) (string, error) {
	if r == nil || len(fs) == 0 {
		return "", nil
	}
	window := int64(r.cfg.Cooldown / time.Second)
	r.mu.Lock()
	var trigger *alerts.Firing
	for i := range fs {
		f := &fs[i]
		r.firings.Push(*f)
		k := cooldownKey{f.Rule, f.Series}
		if last, ok := r.cooldown[k]; ok && f.From-last <= window {
			continue
		}
		r.cooldown[k] = f.From
		if trigger == nil {
			trigger = f
		}
	}
	r.mu.Unlock()
	if trigger == nil || r.cfg.Dir == "" {
		return "", nil
	}
	return r.Dump(now, ReasonAlert, trigger)
}

// Dump writes a bundle into the configured Dir, named
// flight-NNNNNN-<reason>.json after the bundle's own sequence number so
// a dump burst sorts in trigger order. Returns the bundle path. No-op
// ("") on nil or without a Dir.
func (r *Recorder) Dump(now time.Time, reason string, trigger *alerts.Firing) (string, error) {
	if r == nil || r.cfg.Dir == "" {
		return "", nil
	}
	b := r.buildBundle(now, reason, trigger)
	path := filepath.Join(r.cfg.Dir, fmt.Sprintf("flight-%06d-%s.json", b.DumpSeq, reason))
	return path, r.write(path, b)
}

// DumpTo writes a bundle to an explicit path (tmp+rename) — the form
// mprload uses to park SLO evidence next to its report. No-op on nil.
func (r *Recorder) DumpTo(now time.Time, path, reason string, trigger *alerts.Firing) error {
	if r == nil {
		return nil
	}
	return r.write(path, r.buildBundle(now, reason, trigger))
}

func (r *Recorder) write(path string, b *Bundle) error {
	if err := WriteBundleFile(path, b); err != nil {
		r.logf("flight: dump failed: %v", err)
		return err
	}
	r.mu.Lock()
	r.last = DumpInfo{Path: path, Reason: b.Reason, UnixNS: b.SavedUnixNS}
	r.mu.Unlock()
	r.logf("flight: wrote %s bundle %s (seq %d)", b.Reason, path, b.DumpSeq)
	return nil
}

// buildBundle assembles the mprflight/v3 document. Dumps are rare, so
// this path may allocate freely — only recording must not.
func (r *Recorder) buildBundle(now time.Time, reason string, trigger *alerts.Firing) *Bundle {
	// Refresh the runtime snapshot at dump time: the bundle's health
	// section should describe the incident instant, not the last tick.
	r.rt.Sample(now)

	b := &Bundle{
		Schema:      BundleSchema,
		SavedUnixNS: now.UnixNano(),
		Reason:      reason,
		Trigger:     trigger,
		Build:       telemetry.ReadBuildInfo(),
		Config:      r.cfg.ConfigEcho,
		Runtime:     r.rt.Snapshot(),
	}
	if snap := r.cfg.Registry.Snapshot(); snap != nil {
		b.Counters = snap.Counters
		b.Gauges = snap.Gauges
		b.HDRs = snap.HDRs
	}
	b.Spans = r.cfg.Tracer.Spans()

	// The tsdb window reaches bundleWindow back from the trigger's start (or
	// from now for non-alert dumps) through the present.
	start := now.Unix()
	if trigger != nil && trigger.From < start {
		start = trigger.From
	}
	start -= int64(bundleWindow / time.Second)
	if start < 0 {
		start = 0 // FakeClock tests run near the epoch; 0 means unbounded
	}
	b.Series = r.cfg.Store.Query(tsdb.Query{Start: start})

	var prof strings.Builder
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&prof, 1)
	}
	b.GoroutineProfile = prof.String()

	r.mu.Lock()
	r.dumpSeq++
	b.DumpSeq = r.dumpSeq
	b.Firings = r.history()
	r.mu.Unlock()
	return b
}

// Status reports the recorder's state for GET /debug/flight. A nil
// recorder reports Enabled=false.
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{Cooldown: "0s", Firings: []alerts.Firing{}}
	}
	r.mu.Lock()
	st := Status{
		Enabled:  true,
		Dir:      r.cfg.Dir,
		Cooldown: r.cfg.Cooldown.String(),
		Dumps:    r.dumpSeq,
		Last:     r.last,
		Firings:  r.history(),
	}
	r.mu.Unlock()
	st.Runtime = r.rt.Snapshot()
	return st
}

func (r *Recorder) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
