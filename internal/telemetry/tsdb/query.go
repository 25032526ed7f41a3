package tsdb

// Query selects a window over the store.
type Query struct {
	// Name restricts to series with this exact name ("" matches all).
	Name string
	// Start is the window's inclusive lower bound; every retained sample
	// at or after it is returned.
	Start int64
}

// SeriesData is one series' rendered window.
type SeriesData struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Query renders every matching series' retained samples inside the
// window, sorted by series name so results are deterministic. Nil store
// returns nil.
func (st *Store) Query(q Query) []SeriesData {
	if st == nil {
		return nil
	}
	var out []SeriesData
	for _, s := range st.all() {
		if q.Name != "" && q.Name != s.name {
			continue
		}
		out = append(out, SeriesData{Name: s.name, Points: s.snapshot(q.Start)})
	}
	return out
}
