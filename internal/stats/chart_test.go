package stats

import (
	"strings"
	"testing"
)

func TestLineChart(t *testing.T) {
	var s Series
	for i := int64(0); i < 100; i++ {
		s.Append(i, float64(i%20))
	}
	out := LineChart("power", &s, 40, 8, 15)
	if !strings.Contains(out, "power") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "●") {
		t.Error("missing data points")
	}
	if !strings.Contains(out, "┄") {
		t.Error("missing threshold line")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // title + 8 rows
		t.Errorf("line count = %d", len(lines))
	}
	// Degenerate inputs.
	if out := LineChart("x", nil, 40, 8, 0); !strings.Contains(out, "no data") {
		t.Error("nil series should render placeholder")
	}
	if out := LineChart("x", &s, 2, 8, 0); !strings.Contains(out, "no data") {
		t.Error("tiny width should render placeholder")
	}
}

func TestLineChartConstantSeries(t *testing.T) {
	var s Series
	for i := int64(0); i < 10; i++ {
		s.Append(i, 42)
	}
	out := LineChart("", &s, 20, 4, 0)
	if !strings.Contains(out, "●") {
		t.Errorf("constant series render:\n%s", out)
	}
}
