package stats

import (
	"fmt"
	"strings"
)

// LineChart renders a series as a fixed-size ASCII chart with a y-axis
// and an optional horizontal threshold line (e.g. the power capacity).
func LineChart(title string, s *Series, width, height int, threshold float64) string {
	if s == nil || s.Len() == 0 || width < 8 || height < 3 {
		return title + ": (no data)\n"
	}
	ds := s.Downsample(width)
	lo, hi := ds.V[0], ds.V[0]
	for _, v := range ds.V {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if threshold > 0 {
		if threshold < lo {
			lo = threshold
		}
		if threshold > hi {
			hi = threshold
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	// Pad the range slightly so extremes stay visible.
	pad := 0.05 * (hi - lo)
	lo -= pad
	hi += pad

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", len(ds.V)))
	}
	rowOf := func(v float64) int {
		r := int((hi - v) / (hi - lo) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	if threshold > 0 {
		tr := rowOf(threshold)
		for c := range grid[tr] {
			grid[tr][c] = '┄'
		}
	}
	for c, v := range ds.V {
		grid[rowOf(v)][c] = '●'
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for r := 0; r < height; r++ {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%8.4g", hi)
		case height - 1:
			label = fmt.Sprintf("%8.4g", lo)
		default:
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(&b, "%s ┤%s\n", label, string(grid[r]))
	}
	return b.String()
}
