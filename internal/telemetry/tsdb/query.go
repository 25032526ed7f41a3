package tsdb

// Query selects a window over the store.
type Query struct {
	// Name restricts to series with this exact name ("" matches all).
	Name string
	// Match is a label equality matcher: every listed key must be
	// present on the series with the given value (subset match).
	Match map[string]string
	// Start and End bound the window inclusively. Zero End means no
	// upper bound; zero Start no lower bound.
	Start, End int64
}

// SeriesData is one series' rendered window.
type SeriesData struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// matches reports whether the series satisfies the query's name and
// label constraints.
func (q *Query) matches(s *Series) bool {
	if q.Name != "" && q.Name != s.name {
		return false
	}
	for k, want := range q.Match {
		found := false
		for _, l := range s.labels {
			if l.Key == k {
				found = l.Value == want
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Query renders every matching series' retained samples inside the
// window, sorted by canonical series key so results are deterministic.
// Nil store returns nil.
func (st *Store) Query(q Query) []SeriesData {
	if st == nil {
		return nil
	}
	var out []SeriesData
	for _, s := range st.all() {
		if !q.matches(s) {
			continue
		}
		var labels map[string]string
		if len(s.labels) > 0 {
			labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				labels[l.Key] = l.Value
			}
		}
		out = append(out, SeriesData{
			Name:   s.name,
			Labels: labels,
			Points: s.snapshot(q.Start, q.End),
		})
	}
	return out
}
