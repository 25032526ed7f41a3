// Package stats provides the statistical primitives used by the MPR
// reproduction: empirical CDFs for cluster-utilization analysis (Fig. 1(b))
// and down-sampled time series for the timeline figures (Figs. 6 and 17).
package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-th quantile (p in [0,1]) using nearest-rank.
func (c *CDF) Quantile(p float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[n-1]
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return c.sorted[i]
}

// Tail returns P(X > x) — the overload-probability form used by Table I.
func (c *CDF) Tail(x float64) float64 { return 1 - c.At(x) }

// Len reports the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns (x, P(X<=x)) pairs sampled at k evenly spaced quantile
// ranks, suitable for plotting a CDF curve with k points.
func (c *CDF) Points(k int) (xs, ps []float64) {
	if k < 2 || len(c.sorted) == 0 {
		return nil, nil
	}
	xs = make([]float64, k)
	ps = make([]float64, k)
	for i := 0; i < k; i++ {
		p := float64(i) / float64(k-1)
		xs[i] = c.Quantile(p)
		ps[i] = p
	}
	return xs, ps
}

// Series is a time series of (t, v) samples with integer timestamps
// (simulation minutes).
type Series struct {
	T []int64
	V []float64
}

// Append adds a sample.
func (s *Series) Append(t int64, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Downsample reduces the series to at most k points by bucket-averaging,
// preserving the overall shape for timeline figures.
func (s *Series) Downsample(k int) *Series {
	n := len(s.T)
	if k <= 0 || n <= k {
		out := &Series{T: append([]int64(nil), s.T...), V: append([]float64(nil), s.V...)}
		return out
	}
	out := &Series{T: make([]int64, 0, k), V: make([]float64, 0, k)}
	per := float64(n) / float64(k)
	for b := 0; b < k; b++ {
		lo := int(float64(b) * per)
		hi := int(float64(b+1) * per)
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		var sv float64
		var st int64
		for i := lo; i < hi; i++ {
			sv += s.V[i]
			st += s.T[i]
		}
		cnt := float64(hi - lo)
		out.T = append(out.T, st/int64(hi-lo))
		out.V = append(out.V, sv/cnt)
	}
	return out
}

// Max returns the maximum value of the series, or 0 when empty.
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.V {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average value of the series, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}
