package tsdb

import "testing"

// fill appends n samples at t = 0..n-1 with value = t.
func fill(s *Series, n int) {
	for i := 0; i < n; i++ {
		s.Append(int64(i), float64(i))
	}
}

func queryOne(t *testing.T, st *Store, q Query) SeriesData {
	t.Helper()
	data := st.Query(q)
	if len(data) != 1 {
		t.Fatalf("query %+v returned %d series, want 1", q, len(data))
	}
	return data[0]
}

// TestQueryEmptyWindow covers a window that starts after the retained
// data: it must return the series with zero points rather than erroring
// or over-matching.
func TestQueryEmptyWindow(t *testing.T) {
	st := New(64)
	fill(st.Series("m"), 10) // t = 0..9

	t.Run("entirely after data", func(t *testing.T) {
		if sd := queryOne(t, st, Query{Name: "m", Start: 100}); len(sd.Points) != 0 {
			t.Errorf("points = %+v, want none", sd.Points)
		}
	})

	// Sanity: the same series with a covering window does return points.
	if sd := queryOne(t, st, Query{Name: "m"}); len(sd.Points) != 10 {
		t.Fatalf("covering window returned %d points", len(sd.Points))
	}
}
