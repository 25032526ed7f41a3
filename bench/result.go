package main

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one interval of a traced run: recorded by the bench around a
// call into a layer, or read back from the telemetry.Tracer the bench
// handed that layer. Spans of one market share its Market id.
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Market  string `json:"market,omitempty"`
}

// recorder keeps the traced run's spans in memory. A nil recorder (the
// untraced pass) records nothing. It is used from the generator
// goroutine only.
type recorder struct {
	spans []Span
	next  uint64
}

func (r *recorder) add(name string, parent uint64, market string, startNS, endNS int64) uint64 {
	if r == nil {
		return 0
	}
	r.next++
	r.spans = append(r.spans, Span{ID: r.next, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS, Market: market})
	return r.next
}

// Result is what one section run reports: the contract's operation
// counts, its metrics (end-to-end ones untraced, per-layer ones traced),
// and the facts — exact counts and prices — the checks compare against
// golden.json and between passes.
type Result struct {
	Section   string             `json:"section"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   []Metric           `json:"metrics"`
	Facts     map[string]float64 `json:"facts"`
	Spans     []Span             `json:"spans,omitempty"`
}

func newResult(section string, seed int64, traced bool) *Result {
	return &Result{Section: section, Seed: seed, Traced: traced, Facts: map[string]float64{}}
}

// op counts one attempted operation; a non-empty problem marks it failed.
func (r *Result) op(problem string) {
	r.Attempted++
	if problem != "" {
		r.fail(problem)
	}
}

// fail counts a failed operation, keeping the first few messages.
func (r *Result) fail(problem string) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, problem)
	}
}

func (r *Result) add(ms ...Metric) { r.Metrics = append(r.Metrics, ms...) }

// fact records a checked output. Within one run every lap must produce
// the same value, so a second, different recording is a failure. Names
// starting with "price." compare within 1e-9 relative; all others are
// counts and compare exactly.
func (r *Result) fact(name string, v float64) {
	if old, ok := r.Facts[name]; ok {
		if !factEqual(name, old, v) {
			r.fail(fmt.Sprintf("%s changed between laps: %v then %v", name, old, v))
		}
		return
	}
	r.Facts[name] = v
}

func factEqual(name string, a, b float64) bool {
	if strings.HasPrefix(name, "price.") {
		return relDiff(a, b) <= 1e-9
	}
	return a == b
}

// diffFacts lists the facts on which got departs from want.
func diffFacts(want, got map[string]float64) []string {
	var out []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s missing (want %v)", name, w))
		case !factEqual(name, w, g):
			out = append(out, fmt.Sprintf("%s = %v, want %v", name, g, w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			out = append(out, fmt.Sprintf("%s unexpected", name))
		}
	}
	sort.Strings(out)
	return out
}
