package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !floats.AbsEqual(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFTail(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Tail(2); !floats.AbsEqual(got, 0.5, 1e-12) {
		t.Errorf("Tail(2) = %v, want 0.5", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0.5); q != 30 {
		t.Errorf("median = %v, want 30", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Errorf("q0 = %v, want 10", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Errorf("q1 = %v, want 50", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 {
		t.Error("empty CDF At != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
	if xs, ps := c.Points(5); xs != nil || ps != nil {
		t.Error("empty CDF points should be nil")
	}
}

// Property: CDF.At is monotone non-decreasing and in [0,1]; quantile and At
// are approximately inverse.
func TestCDFProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		sort.Float64s(xs)
		prev := -1.0
		for _, x := range xs {
			p := c.At(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		// Quantile stays within the sample range.
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			q := c.Quantile(p)
			if q < xs[0] || q > xs[len(xs)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("points: %v %v", xs, ps)
	}
	if ps[0] != 0 || ps[4] != 1 {
		t.Errorf("p range = %v", ps)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Errorf("xs not sorted: %v", xs)
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	for i := int64(0); i < 10; i++ {
		s.Append(i, float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Max() != 9 {
		t.Errorf("max = %v", s.Max())
	}
	if !floats.AbsEqual(s.Mean(), 4.5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty series stats should be zero")
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := int64(0); i < 100; i++ {
		s.Append(i, 1.0)
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled len = %d", d.Len())
	}
	for _, v := range d.V {
		if !floats.AbsEqual(v, 1.0, 1e-12) {
			t.Errorf("bucket mean = %v, want 1", v)
		}
	}
	// Downsample to more points than exist: identity copy.
	d2 := s.Downsample(1000)
	if d2.Len() != 100 {
		t.Errorf("identity downsample len = %d", d2.Len())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "A", "Metric")
	tb.AddRow("x", 1.23456)
	tb.AddRow("longer-cell", 42)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "longer-cell") {
		t.Errorf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("float formatting: %s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("MD", "A", "B")
	tb.AddRow("x", 1.5)
	md := tb.Markdown()
	if !strings.Contains(md, "**MD**") || !strings.Contains(md, "| A | B |") ||
		!strings.Contains(md, "| --- | --- |") || !strings.Contains(md, "| x | 1.5 |") {
		t.Errorf("markdown render:\n%s", md)
	}
}
