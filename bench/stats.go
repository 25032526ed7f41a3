package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Metric is one named measurement of a run. N is the number of samples
// behind Value (1 for a plain count or ratio); Tail, when set, is the
// highest percentile that still has at least ten samples beyond it.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Tail  string  `json:"tail,omitempty"`
}

// tailLadder are the percentiles a timing may be reported at besides the
// median, lowest first.
var tailLadder = []float64{0.90, 0.99, 0.999, 0.9999}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least ten of n samples beyond it; ok is false when even p90 does not
// (n < 100), in which case only the median is meaningful.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			p, ok = q, true
		}
	}
	return p, ok
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics "inclusive"
// method). xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianSum adds the median of each group of samples: one group per
// distinct input (target level, algorithm), so that a rate is work done
// over the typical time of that work, and a slowdown on one input cannot
// hide behind the others.
func medianSum(groups [][]float64) float64 {
	t := 0.0
	for _, g := range groups {
		t += median(g)
	}
	return t
}

// timing builds the metric for a latency sample set: the median scaled
// into the metric's unit, the sample count, and the tail percentile the
// sample count supports.
func timing(name, unit string, samples []float64, scale float64) Metric {
	m := Metric{Name: name, Value: median(samples) * scale, Unit: unit, N: len(samples)}
	if p, ok := tailPercentile(len(samples)); ok {
		m.Tail = fmt.Sprintf("p%s=%.6g", trimPct(p), quantile(samples, p)*scale)
	}
	return m
}

// trimPct renders 0.999 as "99.9" and 0.9 as "90".
func trimPct(p float64) string {
	return fmt.Sprintf("%g", math.Round(p*1e6)/1e4)
}

func scalar(name, unit string, v float64) Metric {
	return Metric{Name: name, Value: v, Unit: unit, N: 1}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer reports heap allocations per call of f over n calls. It
// counts the whole process, so callers run it while nothing else does.
func allocsPer(n int, f func()) float64 {
	f() // warm lazily grown buffers
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-before) / float64(n)
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}
