package experiments

import (
	"fmt"
	"slices"
	"testing"

	"mpr/internal/sim"
	"mpr/internal/telemetry/tsdb"
)

// TestTimelineFoldPreservesSpikes checks the Fig. 9(e) fold: every
// 100-sample window carries its spike in Max and its dip in Min, the
// last window is partial, and a trailing ten the run did not complete
// is left out.
func TestTimelineFoldPreservesSpikes(t *testing.T) {
	pts := make([]tsdb.Point, 1055)
	for i := range pts {
		pts[i] = tsdb.Point{T: int64(i), V: 1}
	}
	pts[137].V = 999
	pts[421].V = -7
	ws := foldWindows(pts)
	if len(ws) != 11 {
		t.Fatalf("windows = %d, want 10 full + 1 partial", len(ws))
	}
	if w := ws[1]; w.start != 100 || w.end != 199 || w.count != 100 || w.max != 999 || w.sum != 999+99 {
		t.Fatalf("spike window = %+v", w)
	}
	if w := ws[4]; w.min != -7 || w.max != 1 {
		t.Fatalf("dip window = %+v", w)
	}
	if w := ws[10]; w.start != 1000 || w.end != 1049 || w.count != 50 || w.mean() != 1 {
		t.Fatalf("partial window = %+v, want [1000,1049] over 50 samples", w)
	}
}

// TestTimelineRowSelection pins the table's row choice: every k-th
// window for the least k that fits maxRows, with the newest window
// replacing the last pick when the rows are full and appended otherwise,
// never twice.
func TestTimelineRowSelection(t *testing.T) {
	cases := []struct {
		samples, maxRows int
		windows          []int
	}{
		// 10 windows, stride ⌈10/3⌉ = 4 → 0, 4, 8; the newest (9)
		// replaces the last pick.
		{1000, 3, []int{0, 4, 9}},
		// 9 windows, stride 3 → 0, 3, 6; the newest (8) replaces 6.
		{900, 3, []int{0, 3, 8}},
		// Exact fit: stride 1 keeps every window.
		{300, 3, []int{0, 1, 2}},
		// One row is just the newest window.
		{1000, 1, []int{9}},
		// Stride 2 lands on the newest window: nothing replaced, and
		// with a row to spare nothing added twice.
		{900, 5, []int{0, 2, 4, 6, 8}},
		{900, 6, []int{0, 2, 4, 6, 8}},
		// 202 windows, the last one partial ([20100,20169]; the four
		// samples past the last full ten are left out): stride 9 picks
		// 0, 9, …, 198 and the newest (201) follows as the 24th row.
		{20174, 24, append(stride(0, 198, 9), 201)},
	}
	for _, tc := range cases {
		st := tsdb.New(1 << 15)
		for _, name := range []string{sim.SeriesPowerDemandW, sim.SeriesPowerDeliveredW,
			sim.SeriesPowerCapacityW, sim.SeriesOverloadW, sim.SeriesEmergencyActive} {
			s := st.Series(name)
			for i := 0; i < tc.samples; i++ {
				s.Append(int64(i), 1)
			}
		}
		var got, want []string
		for _, row := range timelineTable(st, tc.maxRows).Rows {
			got = append(got, row[0])
		}
		last := tc.samples/10*10 - 1
		for _, w := range tc.windows {
			want = append(want, fmt.Sprintf("[%d,%d]", 100*w, min(100*w+99, last)))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d samples, %d rows: %v, want %v", tc.samples, tc.maxRows, got, want)
		}
	}
}

// stride lists from, from+step, … up to to.
func stride(from, to, step int) []int {
	var out []int
	for i := from; i <= to; i += step {
		out = append(out, i)
	}
	return out
}
