package tsdb

// Resolution selects which ring a query reads.
type Resolution int

const (
	// ResAuto picks the finest resolution whose retained window still
	// covers the query's start and whose point count fits MaxPoints.
	ResAuto Resolution = iota
	// ResRaw reads individual samples.
	ResRaw
	// Res10 reads 10-sample aggregate buckets.
	Res10
	// Res100 reads 100-sample aggregate buckets.
	Res100
)

// String names the resolution as the HTTP surface spells it.
func (r Resolution) String() string {
	switch r {
	case ResRaw:
		return "raw"
	case Res10:
		return "10x"
	case Res100:
		return "100x"
	default:
		return "auto"
	}
}

// ParseResolution parses the HTTP spelling ("raw", "10x", "100x",
// "auto" or ""). Unknown strings fall back to ResAuto.
func ParseResolution(s string) Resolution {
	switch s {
	case "raw":
		return ResRaw
	case "10x":
		return Res10
	case "100x":
		return Res100
	default:
		return ResAuto
	}
}

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
	// Resolution picks the ring (ResAuto adapts per series).
	Resolution Resolution
	// MaxPoints bounds the points returned per series: a window that
	// renders to more buckets than this is stride-thinned (every k-th
	// bucket, keeping the last). 0 means unlimited for explicit
	// resolutions and 1000 for ResAuto's fit heuristic.
	MaxPoints int
}

// autoMaxPoints is ResAuto's default fit budget.
const autoMaxPoints = 1000

// SeriesData is one series' rendered window.
type SeriesData struct {
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Resolution string            `json:"resolution"`
	Points     []Bucket          `json:"points"`
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

// resolve picks the concrete resolution for one series under ResAuto:
// the finest ring that still reaches back to the query's start (oldness)
// and whose full retained length fits the point budget. When nothing
// fits, the coarsest ring wins — better a compacted answer than none.
func (q *Query) resolve(s *Series) Resolution {
	if q.Resolution != ResAuto {
		return q.Resolution
	}
	budget := q.MaxPoints
	if budget <= 0 {
		budget = autoMaxPoints
	}
	for _, cand := range []struct {
		res   Resolution
		level int // -1 = raw
	}{
		{ResRaw, -1},
		{Res10, 0},
		{Res100, 1},
	} {
		oldest, n, wrapped := s.retained(cand.level)
		if n == 0 {
			continue
		}
		// A ring that has not wrapped still holds everything ever
		// appended, so it covers any start; a wrapped ring covers the
		// window only if its oldest survivor predates the start (an
		// unbounded start — zero — asks for all history).
		covers := !wrapped || (q.Start != 0 && oldest <= q.Start)
		if covers && n <= budget {
			return cand.res
		}
	}
	return Res100
}

// Query renders every matching series' window, sorted by canonical
// series key so results are deterministic. Nil store returns nil.
func (st *Store) Query(q Query) []SeriesData {
	if st == nil {
		return nil
	}
	var out []SeriesData
	for _, s := range st.all() {
		if !q.matches(s) {
			continue
		}
		res := q.resolve(s)
		var pts []Bucket
		switch res {
		case ResRaw:
			pts = s.snapshotRaw(nil, q.Start, q.End)
		case Res10:
			pts = s.snapshotAgg(nil, 0, q.Start, q.End)
		default:
			pts = s.snapshotAgg(nil, 1, q.Start, q.End)
		}
		if q.MaxPoints > 0 && len(pts) > q.MaxPoints {
			pts = thin(pts, q.MaxPoints)
		}
		var labels map[string]string
		if len(s.labels) > 0 {
			labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				labels[l.Key] = l.Value
			}
		}
		out = append(out, SeriesData{
			Name:       s.name,
			Labels:     labels,
			Resolution: res.String(),
			Points:     pts,
		})
	}
	return out
}

// thin stride-samples pts down to at most max points, always keeping the
// last point so the window's newest edge survives.
func thin(pts []Bucket, max int) []Bucket {
	if max < 1 {
		max = 1
	}
	stride := (len(pts) + max - 1) / max
	out := make([]Bucket, 0, max)
	for i := 0; i < len(pts); i += stride {
		out = append(out, pts[i])
	}
	if last := pts[len(pts)-1]; len(out) == 0 || out[len(out)-1] != last {
		if len(out) == max {
			out[len(out)-1] = last
		} else {
			out = append(out, last)
		}
	}
	return out
}
